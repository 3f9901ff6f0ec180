/* Native operator cores for the repro BDD manager.
 *
 * This file is compiled on demand (``cc -O2 -shared -fPIC``) by
 * ``repro.bdd.native`` and loaded through cffi's ABI mode.  It operates
 * directly on the manager's flat ``array('q')`` buffers — the node
 * arrays, the open-addressed unique table, the direct-mapped operation
 * caches and the lossless quantification caches — so Python and C
 * always see one shared representation.  Every entry point takes one
 * ``bdd_state`` holding a pointer to each of those buffers; the manager
 * builds it once and re-points only the fields of a buffer it replaced
 * or resized.  The traversal order, hash mixing, and eviction policy
 * here mirror the pure-Python fallback cores in ``repro.bdd.manager``
 * exactly: both kernels create nodes in the same insertion order, which
 * is what keeps synthesis output bit-identical regardless of which
 * kernel ran.
 *
 * Growth protocol: the C side never allocates Python storage.  When an
 * insert would overflow the node arrays it returns ``BDD_GROW_NODES``;
 * when the unique table crosses 75% load it returns
 * ``BDD_GROW_UNIQUE``; when a cache table must grow it returns
 * ``BDD_GROW_TABLE(i)``.  The Python wrapper grows the corresponding
 * structure and restarts the operation.  The nodes an aborted attempt
 * created live in the unique table, so the restart finds them again and
 * creates only the rest, in the same order; after a node, unique or
 * quantify-cache growth the partial results also still live in the
 * caches, so the restart is near-free.  A table doubles in place when
 * its arrays already hold the room (``bdd_grow_unique``,
 * ``bdd_grow_table``); the manager extends them first otherwise.
 *
 * Every exported entry checks the node ids it is handed against the
 * node count and returns ``BDD_BAD_NODE`` for one the manager never
 * made, so a stray id raises ``ValueError`` instead of reading outside
 * the node arrays.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BDD_FALSE 0
#define BDD_TRUE 1

#define BDD_GROW_NODES (-1)
#define BDD_GROW_UNIQUE (-2)
#define BDD_NOMEM (-3)
#define BDD_BAD_NODE (-4) /* a node id the manager never made */
#define BDD_BAD_VAR (-5)  /* transfer: a level var_map lacks or maps badly */
/* -(6+i): cache table i must grow.  An op cache (i < N_OPCACHES) doubles
 * and drops its entries; a quantify cache doubles by a lossless rehash
 * (bdd_grow_table). */
#define BDD_GROW_TABLE(i) (-6 - (i))
#define OPCACHE_MAX (1 << 16) /* keep in sync with manager._OPCACHE_MAX */

/* Cache tables, in ctrl[] and growth-code order. */
enum { T_AND, T_OR, T_XOR, T_NOT, T_ITE, T_EX, T_FA, T_AE, N_OPCACHES = T_EX };

/* ctrl[] layout — keep in sync with repro.bdd.manager.  Table i keeps
 * its slot mask at C_MASK + i (0 while unallocated) and its live-entry
 * count at C_USED + i. */
enum {
    C_NNODES = 0,
    C_NODECAP = 1,
    C_UNIQ_MASK = 2,
    C_UNIQ_USED = 3,
    C_MASK = 4,
    C_USED = 12,
};

/* stats[] layout — keep in sync with repro.bdd.manager. */
enum {
    S_ITE_HIT = 0, S_ITE_MISS,
    S_AND_HIT, S_AND_MISS,
    S_OR_HIT, S_OR_MISS,
    S_XOR_HIT, S_XOR_MISS,
    S_NOT_HIT, S_NOT_MISS,
    S_EX_HIT, S_EX_MISS,
    S_FA_HIT, S_FA_MISS,
    S_AE_HIT, S_AE_MISS,
    S_INSERTS, S_CLEARS, S_EVICTED, N_STATS,
};

/* Every buffer the kernel reads or writes — keep the field order in
 * sync with repro.bdd.native._CDEF.  A NULL cache field means that
 * cache is not allocated (its ctrl mask is then 0). */
typedef struct {
    int64_t *ctrl;
    int64_t *level, *lo, *hi;
    int64_t *uniq;
    int64_t *and_k, *and_v, *or_k, *or_v, *xor_k, *xor_v, *not_k, *not_v;
    int64_t *ite_ka, *ite_kb, *ite_v;
    int64_t *ex_k, *ex_v, *fa_k, *fa_v;
    int64_t *ae_k1, *ae_k2, *ae_v;
    int64_t *stat_arr;
} bdd_state;

/* Point ``arrs`` at cache table t's arrays (keys first, values last);
 * returns how many there are. */
static int table_arrays(const bdd_state *st, int64_t t, int64_t *arrs[3]) {
    switch (t) {
    case T_AND: arrs[0] = st->and_k; arrs[1] = st->and_v; return 2;
    case T_OR: arrs[0] = st->or_k; arrs[1] = st->or_v; return 2;
    case T_XOR: arrs[0] = st->xor_k; arrs[1] = st->xor_v; return 2;
    case T_NOT: arrs[0] = st->not_k; arrs[1] = st->not_v; return 2;
    case T_ITE:
        arrs[0] = st->ite_ka; arrs[1] = st->ite_kb; arrs[2] = st->ite_v;
        return 3;
    case T_EX: arrs[0] = st->ex_k; arrs[1] = st->ex_v; return 2;
    case T_FA: arrs[0] = st->fa_k; arrs[1] = st->fa_v; return 2;
    default:
        arrs[0] = st->ae_k1; arrs[1] = st->ae_k2; arrs[2] = st->ae_v;
        return 3;
    }
}

/* True for an id that is not a node of this manager (negative ids
 * included). */
static inline int bad_node(const bdd_state *st, int64_t f) {
    return (uint64_t)f >= (uint64_t)st->ctrl[C_NNODES];
}

/* Hash multipliers shared with the Python probes.  All operands are
 * < 2^31 (node indices) or < 2^30 (levels), so the mixed sum stays
 * below 2^64 and Python's unbounded integers compute the same value. */
#define M1 2654435761ULL /* 0x9E3779B1 */
#define M2 2246822519ULL /* 0x85EBCA77 */
#define M3 3266489917ULL /* 0xC2B2AE3D */

typedef struct {
    int64_t tag;
    int64_t a;
    int64_t b;
    int64_t c;
} frame_t;

typedef struct {
    frame_t *frames;
    int64_t top;
    int64_t cap;
    int64_t *results;
    int64_t rtop;
    int64_t rcap;
    int oom;
} stacks_t;

static int stacks_init(stacks_t *s) {
    s->cap = 1024;
    s->rcap = 1024;
    s->top = 0;
    s->rtop = 0;
    s->oom = 0;
    s->frames = malloc(sizeof(frame_t) * s->cap);
    s->results = malloc(sizeof(int64_t) * s->rcap);
    if (!s->frames || !s->results) {
        free(s->frames);
        free(s->results);
        s->oom = 1;
        return 0;
    }
    return 1;
}

static void stacks_free(stacks_t *s) {
    if (!s->oom) {
        free(s->frames);
        free(s->results);
    }
}

static inline int push_frame(stacks_t *s, int64_t tag, int64_t a, int64_t b,
                             int64_t c) {
    if (s->top == s->cap) {
        int64_t ncap = s->cap * 2;
        frame_t *nf = realloc(s->frames, sizeof(frame_t) * ncap);
        if (!nf) return 0;
        s->frames = nf;
        s->cap = ncap;
    }
    frame_t *f = &s->frames[s->top++];
    f->tag = tag;
    f->a = a;
    f->b = b;
    f->c = c;
    return 1;
}

static inline int push_result(stacks_t *s, int64_t v) {
    if (s->rtop == s->rcap) {
        int64_t ncap = s->rcap * 2;
        int64_t *nr = realloc(s->results, sizeof(int64_t) * ncap);
        if (!nr) return 0;
        s->results = nr;
        s->rcap = ncap;
    }
    s->results[s->rtop++] = v;
    return 1;
}

/* Find-or-create (lvl, lo, hi) in the unique table.  Returns the node,
 * or a negative growth request. */
static inline int64_t mk(const bdd_state *st, int64_t lvl, int64_t lo,
                         int64_t hi) {
    if (lo == hi) return lo;
    int64_t *ctrl = st->ctrl;
    int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    int64_t *uniq = st->uniq;
    uint64_t mask = (uint64_t)ctrl[C_UNIQ_MASK];
    uint64_t slot = ((uint64_t)lvl * M1 + (uint64_t)lo * M2 +
                     (uint64_t)hi * M3) & mask;
    for (;;) {
        int64_t node = uniq[slot];
        if (node == 0) break;
        if (level[node] == lvl && loa[node] == lo && hia[node] == hi)
            return node;
        slot = (slot + 1) & mask;
    }
    int64_t n = ctrl[C_NNODES];
    if (n >= ctrl[C_NODECAP]) return BDD_GROW_NODES;
    if ((ctrl[C_UNIQ_USED] + 1) * 4 > (int64_t)(mask + 1) * 3)
        return BDD_GROW_UNIQUE;
    level[n] = lvl;
    loa[n] = lo;
    hia[n] = hi;
    uniq[slot] = n;
    ctrl[C_NNODES] = n + 1;
    ctrl[C_UNIQ_USED] += 1;
    st->stat_arr[S_INSERTS] += 1;
    return n;
}

/* Direct-mapped cache store with in-place eviction accounting.
 * Returns 1 when a live entry under a different key was overwritten, so
 * callers can count per-call eviction pressure. */
static inline int cache_put(int64_t *keys, int64_t *vals, int64_t *used,
                            int64_t key, int64_t value, uint64_t slot,
                            int64_t *stats) {
    int64_t old = keys[slot];
    int evicted = 0;
    if (old == 0)
        *used += 1;
    else if (old != key) {
        stats[S_EVICTED] += 1;
        evicted = 1;
    }
    keys[slot] = key;
    vals[slot] = value;
    return evicted;
}

/* True when one call has overwritten ``ev`` entries of a cache of mask
 * ``mask`` — more than it holds — and the cache may still double: the
 * thrash escape.  Mirrors the mid-call check in the Python cores. */
static inline int thrashing(int64_t ev, uint64_t mask) {
    return ev > (int64_t)mask && (int64_t)(mask + 1) < OPCACHE_MAX;
}

/* Entry-time op-cache policy, mirroring BDDManager._prep_op: allocate
 * the op caches on first use, then double any cache above 50%
 * occupancy until the cap.  Returns 0, or the growth code of the first
 * table that must grow (an unallocated table "grows" by allocation). */
static inline int64_t check_opcaches(const bdd_state *st) {
    const int64_t *ctrl = st->ctrl;
    if (ctrl[C_MASK + T_AND] == 0) return BDD_GROW_TABLE(T_AND);
    if (ctrl[C_MASK + T_AND] + 1 < OPCACHE_MAX) {
        for (int i = 0; i < N_OPCACHES; i++)
            if (ctrl[C_USED + i] * 2 > ctrl[C_MASK + i])
                return BDD_GROW_TABLE(i);
    }
    return 0;
}

/* Complement ~f.  Mirrors BDDManager._py_negate. */
static int64_t negate_core(const bdd_state *st, int64_t f) {
    if (f <= 1) return 1 - f;
    int64_t *ctrl = st->ctrl, *stats = st->stat_arr;
    int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    int64_t *not_k = st->not_k, *not_v = st->not_v;
    uint64_t nmask = (uint64_t)ctrl[C_MASK + T_NOT];
    {
        uint64_t slot = ((uint64_t)f * M1) & nmask;
        if (not_k[slot] == f) {
            stats[S_NOT_HIT] += 1;
            return not_v[slot];
        }
    }
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    int64_t ev = 0;
    if (!push_frame(&s, 0, f, 0, 0)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        int64_t n = fr.a;
        if (fr.tag == 0) {
            if (n <= 1) {
                if (!push_result(&s, 1 - n)) rc = BDD_NOMEM;
                continue;
            }
            uint64_t slot = ((uint64_t)n * M1) & nmask;
            if (not_k[slot] == n) {
                stats[S_NOT_HIT] += 1;
                if (!push_result(&s, not_v[slot])) rc = BDD_NOMEM;
                continue;
            }
            stats[S_NOT_MISS] += 1;
            if (!push_frame(&s, 1, n, 0, 0) ||
                !push_frame(&s, 0, hia[n], 0, 0) ||
                !push_frame(&s, 0, loa[n], 0, 0))
                rc = BDD_NOMEM;
        } else {
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t node = mk(st, level[n], lo, hi);
            if (node < 0) {
                rc = node;
                break;
            }
            int64_t *used = &ctrl[C_USED + T_NOT];
            ev += cache_put(not_k, not_v, used, n, node,
                            ((uint64_t)n * M1) & nmask, stats);
            ev += cache_put(not_k, not_v, used, node, n,
                            ((uint64_t)node * M1) & nmask, stats);
            if (thrashing(ev, nmask)) {
                rc = BDD_GROW_TABLE(T_NOT);
                break;
            }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* Binary connectives: op 0 = AND, 1 = OR, 2 = XOR (the table index of
 * the op's cache).  The caller has already applied the terminal
 * short-circuits and the operand swap, so f, g >= 2 and f < g on entry;
 * per-frame logic mirrors the Python fallback core exactly. */
static int64_t apply_core(const bdd_state *st, int64_t op, int64_t f,
                          int64_t g) {
    int64_t *ctrl = st->ctrl, *stats = st->stat_arr;
    int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    int64_t *ck, *cv;
    int s_hit, s_miss;
    if (op == T_AND) {
        ck = st->and_k; cv = st->and_v; s_hit = S_AND_HIT; s_miss = S_AND_MISS;
    } else if (op == T_OR) {
        ck = st->or_k; cv = st->or_v; s_hit = S_OR_HIT; s_miss = S_OR_MISS;
    } else {
        ck = st->xor_k; cv = st->xor_v; s_hit = S_XOR_HIT; s_miss = S_XOR_MISS;
    }
    uint64_t cmask = (uint64_t)ctrl[C_MASK + op];
    int64_t *cused = &ctrl[C_USED + op];
    {
        int64_t key = (f << 31) | g;
        uint64_t slot = ((uint64_t)f * M1 + (uint64_t)g * M2) & cmask;
        if (ck[slot] == key) {
            stats[s_hit] += 1;
            return cv[slot];
        }
    }
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    int64_t ev = 0;
    if (!push_frame(&s, 0, f, g, 0)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        if (fr.tag == 0) {
            int64_t a = fr.a, b = fr.b;
            if (op == T_AND) {
                if (a == b) { if (!push_result(&s, a)) rc = BDD_NOMEM; continue; }
                if (a == BDD_FALSE || b == BDD_FALSE) {
                    if (!push_result(&s, BDD_FALSE)) rc = BDD_NOMEM;
                    continue;
                }
                if (a == BDD_TRUE) { if (!push_result(&s, b)) rc = BDD_NOMEM; continue; }
                if (b == BDD_TRUE) { if (!push_result(&s, a)) rc = BDD_NOMEM; continue; }
            } else if (op == T_OR) {
                if (a == b) { if (!push_result(&s, a)) rc = BDD_NOMEM; continue; }
                if (a == BDD_TRUE || b == BDD_TRUE) {
                    if (!push_result(&s, BDD_TRUE)) rc = BDD_NOMEM;
                    continue;
                }
                if (a == BDD_FALSE) { if (!push_result(&s, b)) rc = BDD_NOMEM; continue; }
                if (b == BDD_FALSE) { if (!push_result(&s, a)) rc = BDD_NOMEM; continue; }
            } else { /* XOR terminals */
                if (a == b) { if (!push_result(&s, BDD_FALSE)) rc = BDD_NOMEM; continue; }
                if (a == BDD_FALSE) { if (!push_result(&s, b)) rc = BDD_NOMEM; continue; }
                if (b == BDD_FALSE) { if (!push_result(&s, a)) rc = BDD_NOMEM; continue; }
                if (a == BDD_TRUE || b == BDD_TRUE) {
                    int64_t r = negate_core(st, a == BDD_TRUE ? b : a);
                    if (r < 0) { rc = r; break; }
                    if (!push_result(&s, r)) rc = BDD_NOMEM;
                    continue;
                }
            }
            if (a > b) { int64_t t = a; a = b; b = t; }
            int64_t key = (a << 31) | b;
            uint64_t slot = ((uint64_t)a * M1 + (uint64_t)b * M2) & cmask;
            if (ck[slot] == key) {
                stats[s_hit] += 1;
                if (!push_result(&s, cv[slot])) rc = BDD_NOMEM;
                continue;
            }
            stats[s_miss] += 1;
            int64_t la = level[a], lb = level[b];
            int64_t top, a0, a1, b0, b1;
            if (la < lb) {
                top = la; a0 = loa[a]; a1 = hia[a]; b0 = b; b1 = b;
            } else if (lb < la) {
                top = lb; a0 = a; a1 = a; b0 = loa[b]; b1 = hia[b];
            } else {
                top = la; a0 = loa[a]; a1 = hia[a]; b0 = loa[b]; b1 = hia[b];
            }
            if (!push_frame(&s, 1, key, top, 0) ||
                !push_frame(&s, 0, a1, b1, 0) ||
                !push_frame(&s, 0, a0, b0, 0))
                rc = BDD_NOMEM;
        } else {
            int64_t key = fr.a, top = fr.b;
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t node = mk(st, top, lo, hi);
            if (node < 0) { rc = node; break; }
            uint64_t slot = ((uint64_t)(key >> 31) * M1 +
                             (uint64_t)(key & 0x7FFFFFFF) * M2) & cmask;
            ev += cache_put(ck, cv, cused, key, node, slot, stats);
            if (thrashing(ev, cmask)) {
                rc = BDD_GROW_TABLE(op);
                break;
            }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* If-then-else.  The caller has applied the top-level short-circuits,
 * so f >= 2 on entry (g, h may still be terminals). */
static int64_t ite_core(const bdd_state *st, int64_t f, int64_t g,
                        int64_t h) {
    int64_t *ctrl = st->ctrl, *stats = st->stat_arr;
    int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    int64_t *ite_ka = st->ite_ka, *ite_kb = st->ite_kb, *ite_v = st->ite_v;
    uint64_t imask = (uint64_t)ctrl[C_MASK + T_ITE];
    {
        int64_t ka = (f << 31) | g;
        uint64_t slot = ((uint64_t)f * M1 + (uint64_t)g * M2 +
                         (uint64_t)h * M3) & imask;
        if (ite_ka[slot] == ka && ite_kb[slot] == h) {
            stats[S_ITE_HIT] += 1;
            return ite_v[slot];
        }
    }
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    int64_t ev = 0;
    if (!push_frame(&s, 0, f, g, h)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        if (fr.tag == 0) {
            int64_t a = fr.a, b = fr.b, c = fr.c;
            if (a == BDD_TRUE) { if (!push_result(&s, b)) rc = BDD_NOMEM; continue; }
            if (a == BDD_FALSE) { if (!push_result(&s, c)) rc = BDD_NOMEM; continue; }
            if (b == c) { if (!push_result(&s, b)) rc = BDD_NOMEM; continue; }
            if (b == BDD_TRUE && c == BDD_FALSE) {
                if (!push_result(&s, a)) rc = BDD_NOMEM;
                continue;
            }
            if (b == BDD_FALSE && c == BDD_TRUE) {
                int64_t r = negate_core(st, a);
                if (r < 0) { rc = r; break; }
                if (!push_result(&s, r)) rc = BDD_NOMEM;
                continue;
            }
            int64_t ka = (a << 31) | b;
            uint64_t slot = ((uint64_t)a * M1 + (uint64_t)b * M2 +
                             (uint64_t)c * M3) & imask;
            if (ite_ka[slot] == ka && ite_kb[slot] == c) {
                stats[S_ITE_HIT] += 1;
                if (!push_result(&s, ite_v[slot])) rc = BDD_NOMEM;
                continue;
            }
            stats[S_ITE_MISS] += 1;
            int64_t lf = level[a], lg = level[b], lh = level[c];
            int64_t top = lf;
            if (lg < top) top = lg;
            if (lh < top) top = lh;
            int64_t f0, f1, g0, g1, h0, h1;
            if (lf == top) { f0 = loa[a]; f1 = hia[a]; } else { f0 = a; f1 = a; }
            if (lg == top) { g0 = loa[b]; g1 = hia[b]; } else { g0 = b; g1 = b; }
            if (lh == top) { h0 = loa[c]; h1 = hia[c]; } else { h0 = c; h1 = c; }
            if (!push_frame(&s, 1, ka, c, top) ||
                !push_frame(&s, 0, f1, g1, h1) ||
                !push_frame(&s, 0, f0, g0, h0))
                rc = BDD_NOMEM;
        } else {
            int64_t ka = fr.a, kb = fr.b, top = fr.c;
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t node = mk(st, top, lo, hi);
            if (node < 0) { rc = node; break; }
            uint64_t slot = ((uint64_t)(ka >> 31) * M1 +
                             (uint64_t)(ka & 0x7FFFFFFF) * M2 +
                             (uint64_t)kb * M3) & imask;
            int64_t old = ite_ka[slot];
            if (old == 0)
                ctrl[C_USED + T_ITE] += 1;
            else if (old != ka || ite_kb[slot] != kb) {
                stats[S_EVICTED] += 1;
                ev += 1;
            }
            ite_ka[slot] = ka;
            ite_kb[slot] = kb;
            ite_v[slot] = node;
            if (thrashing(ev, imask)) {
                rc = BDD_GROW_TABLE(T_ITE);
                break;
            }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* The terminal short-circuits of manager.apply_and/apply_or: the
 * result, or -1 when the core must run. */
static inline int64_t apply_shortcut(int64_t op, int64_t a, int64_t b) {
    if (a == b) return a;
    if (op == T_AND) {
        if (a == BDD_FALSE || b == BDD_FALSE) return BDD_FALSE;
        if (a == BDD_TRUE) return b;
        if (b == BDD_TRUE) return a;
    } else { /* OR */
        if (a == BDD_TRUE || b == BDD_TRUE) return BDD_TRUE;
        if (a == BDD_FALSE) return b;
        if (b == BDD_FALSE) return a;
    }
    return -1;
}

/* Binary connective with the public-entry short-circuits applied, for
 * use *inside* other kernels (mirrors manager.apply_and/apply_or). */
static int64_t apply_full(const bdd_state *st, int64_t op, int64_t a,
                          int64_t b) {
    int64_t r = apply_shortcut(op, a, b);
    if (r >= 0) return r;
    if (a > b) { int64_t t = a; a = b; b = t; }
    return apply_core(st, op, a, b);
}

/* manager.apply_and/apply_or as a whole, for the builder walks: the
 * short-circuits, then the entry-time op-cache check, then the core. */
static int64_t apply_entry(const bdd_state *st, int64_t op, int64_t a,
                           int64_t b) {
    int64_t r = apply_shortcut(op, a, b);
    if (r >= 0) return r;
    r = check_opcaches(st);
    if (r) return r;
    if (a > b) { int64_t t = a; a = b; b = t; }
    return apply_core(st, op, a, b);
}

/* manager.ite as a whole (the ~f case through manager.negate), for the
 * builder walks. */
static int64_t ite_entry(const bdd_state *st, int64_t f, int64_t g,
                         int64_t h) {
    if (f == BDD_TRUE) return g;
    if (f == BDD_FALSE) return h;
    if (g == h) return g;
    if (g == BDD_TRUE && h == BDD_FALSE) return f;
    int64_t rc = check_opcaches(st);
    if (rc) return rc;
    if (g == BDD_FALSE && h == BDD_TRUE) return negate_core(st, f);
    return ite_core(st, f, g, h);
}

/* Is ``lvl`` one of the quantified levels?  ``cube`` is sorted
 * ascending and small, so a linear scan with early exit wins over
 * anything fancier. */
static inline int in_cube(int64_t lvl, const int64_t *cube, int64_t len) {
    for (int64_t i = 0; i < len; i++) {
        if (cube[i] >= lvl) return cube[i] == lvl;
    }
    return 0;
}

/* Lossless insert into a (node << 31 | cid)-keyed quantify cache.
 * Returns 0 — without touching the table — when the insert would push
 * the load past 75%; the caller converts that into a grow-and-restart
 * round trip through Python. */
static inline int q_put1(int64_t *qk, int64_t *qv, uint64_t qmask,
                         int64_t *quse, int64_t key, int64_t value) {
    if ((quse[0] + 1) * 4 > (int64_t)(qmask + 1) * 3) return 0;
    uint64_t slot = ((uint64_t)(key >> 31) * M1 +
                     (uint64_t)(key & 0x7FFFFFFF) * M2) & qmask;
    while (qk[slot] != 0) {
        if (qk[slot] == key) { qv[slot] = value; return 1; }
        slot = (slot + 1) & qmask;
    }
    qk[slot] = key;
    qv[slot] = value;
    quse[0] += 1;
    return 1;
}

/* Existential (T_EX, OR-combine) / universal (T_FA, AND-combine)
 * abstraction.  Mirrors repro.bdd.quantify.exists/forall frame for
 * frame: tag 0 expand, tag 1 rebuild an unquantified level, tag 2
 * lo-cofactor of a quantified level done (early-exit on the dominating
 * terminal), tag 3 both cofactors done (combine). */
static int64_t quantify_core(const bdd_state *st, int64_t q, int64_t f,
                             int64_t cid, const int64_t *cube,
                             int64_t cube_len, int64_t max_level) {
    int64_t *ctrl = st->ctrl, *stats = st->stat_arr;
    int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    int64_t *qk = (q == T_EX) ? st->ex_k : st->fa_k;
    int64_t *qv = (q == T_EX) ? st->ex_v : st->fa_v;
    uint64_t qmask = (uint64_t)ctrl[C_MASK + q];
    int64_t *quse = &ctrl[C_USED + q];
    int s_hit = (q == T_EX) ? S_EX_HIT : S_FA_HIT;
    int s_miss = (q == T_EX) ? S_EX_MISS : S_FA_MISS;
    int64_t early = (q == T_EX) ? BDD_TRUE : BDD_FALSE;
    int64_t combine = (q == T_EX) ? T_OR : T_AND;
    if (f <= 1 || level[f] > max_level) return f;
    {
        int64_t fkey = (f << 31) | cid;
        uint64_t slot = ((uint64_t)f * M1 + (uint64_t)cid * M2) & qmask;
        while (qk[slot] != 0) {
            if (qk[slot] == fkey) {
                stats[s_hit] += 1;
                return qv[slot];
            }
            slot = (slot + 1) & qmask;
        }
    }
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    if (!push_frame(&s, 0, f, 0, 0)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        if (fr.tag == 0) {
            int64_t n = fr.a;
            if (n <= 1 || level[n] > max_level) {
                if (!push_result(&s, n)) rc = BDD_NOMEM;
                continue;
            }
            int64_t nkey = (n << 31) | cid;
            uint64_t slot = ((uint64_t)n * M1 + (uint64_t)cid * M2) & qmask;
            int64_t cached = -1;
            while (qk[slot] != 0) {
                if (qk[slot] == nkey) { cached = qv[slot]; break; }
                slot = (slot + 1) & qmask;
            }
            if (cached >= 0) {
                stats[s_hit] += 1;
                if (!push_result(&s, cached)) rc = BDD_NOMEM;
                continue;
            }
            stats[s_miss] += 1;
            int64_t lvl = level[n];
            if (in_cube(lvl, cube, cube_len)) {
                if (!push_frame(&s, 2, nkey, hia[n], 0) ||
                    !push_frame(&s, 0, loa[n], 0, 0))
                    rc = BDD_NOMEM;
            } else {
                if (!push_frame(&s, 1, nkey, lvl, 0) ||
                    !push_frame(&s, 0, hia[n], 0, 0) ||
                    !push_frame(&s, 0, loa[n], 0, 0))
                    rc = BDD_NOMEM;
            }
        } else if (fr.tag == 1) {
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t node = mk(st, fr.b, lo, hi);
            if (node < 0) { rc = node; break; }
            if (!q_put1(qk, qv, qmask, quse, fr.a, node)) {
                rc = BDD_GROW_TABLE(q);
                break;
            }
            s.results[s.rtop - 1] = node;
        } else if (fr.tag == 2) {
            if (s.results[s.rtop - 1] == early) {
                if (!q_put1(qk, qv, qmask, quse, fr.a, early)) {
                    rc = BDD_GROW_TABLE(q);
                    break;
                }
                continue;
            }
            if (!push_frame(&s, 3, fr.a, 0, 0) ||
                !push_frame(&s, 0, fr.b, 0, 0))
                rc = BDD_NOMEM;
        } else {
            int64_t hi = s.results[--s.rtop];
            int64_t node = apply_full(st, combine, s.results[s.rtop - 1], hi);
            if (node < 0) { rc = node; break; }
            if (!q_put1(qk, qv, qmask, quse, fr.a, node)) {
                rc = BDD_GROW_TABLE(q);
                break;
            }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* Lossless insert into the two-word-key and_exists cache; same growth
 * contract as q_put1. */
static inline int ae_put(int64_t *k1, int64_t *k2, int64_t *v,
                         uint64_t mask, int64_t *use, int64_t a, int64_t b,
                         int64_t cid, int64_t value) {
    if ((use[0] + 1) * 4 > (int64_t)(mask + 1) * 3) return 0;
    int64_t key1 = (a << 31) | b;
    uint64_t slot = ((uint64_t)a * M1 + (uint64_t)b * M2 +
                     (uint64_t)cid * M3) & mask;
    while (k1[slot] != 0) {
        if (k1[slot] == key1 && k2[slot] == cid) {
            v[slot] = value;
            return 1;
        }
        slot = (slot + 1) & mask;
    }
    k1[slot] = key1;
    k2[slot] = cid;
    v[slot] = value;
    use[0] += 1;
    return 1;
}

/* Fused relational product ∃cube.(f & g).  Mirrors
 * repro.bdd.quantify.and_exists; pair frames pack (a << 31 | b) into
 * one word since both operands are node indices < 2^31. */
static int64_t and_exists_core(const bdd_state *st, int64_t f, int64_t g,
                               int64_t cid, const int64_t *cube,
                               int64_t cube_len, int64_t max_level) {
    int64_t *ctrl = st->ctrl, *stats = st->stat_arr;
    int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    int64_t *ae_k1 = st->ae_k1, *ae_k2 = st->ae_k2, *ae_v = st->ae_v;
    uint64_t amask = (uint64_t)ctrl[C_MASK + T_AE];
    int64_t *ause = &ctrl[C_USED + T_AE];
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    if (!push_frame(&s, 0, f, g, 0)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        if (fr.tag == 0) {
            int64_t a = fr.a, b = fr.b;
            if (a == BDD_FALSE || b == BDD_FALSE) {
                if (!push_result(&s, BDD_FALSE)) rc = BDD_NOMEM;
                continue;
            }
            if (a == BDD_TRUE || b == BDD_TRUE) {
                int64_t other = (a == BDD_TRUE) ? b : a;
                int64_t r = (other == BDD_TRUE)
                    ? BDD_TRUE
                    : quantify_core(st, T_EX, other, cid, cube, cube_len,
                                    max_level);
                if (r < 0) { rc = r; break; }
                if (!push_result(&s, r)) rc = BDD_NOMEM;
                continue;
            }
            int64_t la = level[a], lb = level[b];
            if (la > max_level && lb > max_level) {
                /* No quantified variable below either operand: the
                 * product degenerates to a plain conjunction. */
                int64_t r = apply_full(st, T_AND, a, b);
                if (r < 0) { rc = r; break; }
                if (!push_result(&s, r)) rc = BDD_NOMEM;
                continue;
            }
            if (a > b) {
                int64_t t = a; a = b; b = t;
                t = la; la = lb; lb = t;
            }
            int64_t key1 = (a << 31) | b;
            uint64_t slot = ((uint64_t)a * M1 + (uint64_t)b * M2 +
                             (uint64_t)cid * M3) & amask;
            int64_t cached = -1;
            while (ae_k1[slot] != 0) {
                if (ae_k1[slot] == key1 && ae_k2[slot] == cid) {
                    cached = ae_v[slot];
                    break;
                }
                slot = (slot + 1) & amask;
            }
            if (cached >= 0) {
                stats[S_AE_HIT] += 1;
                if (!push_result(&s, cached)) rc = BDD_NOMEM;
                continue;
            }
            stats[S_AE_MISS] += 1;
            int64_t top, a0, a1, b0, b1;
            if (la < lb) {
                top = la; a0 = loa[a]; a1 = hia[a]; b0 = b; b1 = b;
            } else if (lb < la) {
                top = lb; a0 = a; a1 = a; b0 = loa[b]; b1 = hia[b];
            } else {
                top = la; a0 = loa[a]; a1 = hia[a]; b0 = loa[b]; b1 = hia[b];
            }
            if (in_cube(top, cube, cube_len)) {
                if (!push_frame(&s, 2, key1, a1, b1) ||
                    !push_frame(&s, 0, a0, b0, 0))
                    rc = BDD_NOMEM;
            } else {
                if (!push_frame(&s, 1, key1, top, 0) ||
                    !push_frame(&s, 0, a1, b1, 0) ||
                    !push_frame(&s, 0, a0, b0, 0))
                    rc = BDD_NOMEM;
            }
        } else if (fr.tag == 1) {
            int64_t a = fr.a >> 31, b = fr.a & 0x7FFFFFFF;
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t node = mk(st, fr.b, lo, hi);
            if (node < 0) { rc = node; break; }
            if (!ae_put(ae_k1, ae_k2, ae_v, amask, ause, a, b, cid, node)) {
                rc = BDD_GROW_TABLE(T_AE);
                break;
            }
            s.results[s.rtop - 1] = node;
        } else if (fr.tag == 2) {
            int64_t a = fr.a >> 31, b = fr.a & 0x7FFFFFFF;
            if (s.results[s.rtop - 1] == BDD_TRUE) {
                if (!ae_put(ae_k1, ae_k2, ae_v, amask, ause, a, b, cid,
                            BDD_TRUE)) {
                    rc = BDD_GROW_TABLE(T_AE);
                    break;
                }
                continue;
            }
            if (!push_frame(&s, 3, fr.a, 0, 0) ||
                !push_frame(&s, 0, fr.b, fr.c, 0))
                rc = BDD_NOMEM;
        } else {
            int64_t a = fr.a >> 31, b = fr.a & 0x7FFFFFFF;
            int64_t hi = s.results[--s.rtop];
            int64_t node = apply_full(st, T_OR, s.results[s.rtop - 1], hi);
            if (node < 0) { rc = node; break; }
            if (!ae_put(ae_k1, ae_k2, ae_v, amask, ause, a, b, cid, node)) {
                rc = BDD_GROW_TABLE(T_AE);
                break;
            }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* -- Exported entry points ------------------------------------------
 * Each checks its node operands, applies the entry-time op-cache
 * policy, then runs its core.  The cores call each other directly,
 * without either check, as the Python cores do. */

int64_t bdd_negate(const bdd_state *st, int64_t f) {
    if (bad_node(st, f)) return BDD_BAD_NODE;
    int64_t rc = check_opcaches(st);
    return rc ? rc : negate_core(st, f);
}

int64_t bdd_apply(const bdd_state *st, int64_t op, int64_t f, int64_t g) {
    if (bad_node(st, f) || bad_node(st, g)) return BDD_BAD_NODE;
    int64_t rc = check_opcaches(st);
    return rc ? rc : apply_core(st, op, f, g);
}

int64_t bdd_ite(const bdd_state *st, int64_t f, int64_t g, int64_t h) {
    if (bad_node(st, f) || bad_node(st, g) || bad_node(st, h))
        return BDD_BAD_NODE;
    int64_t rc = check_opcaches(st);
    return rc ? rc : ite_core(st, f, g, h);
}

/* Exists (op 0) / forall (op 1) over the sorted levels ``cube``; the
 * caller has allocated the quantify caches. */
int64_t bdd_quantify(const bdd_state *st, int64_t op, int64_t f,
                     int64_t cid, const int64_t *cube, int64_t cube_len,
                     int64_t max_level) {
    if (bad_node(st, f)) return BDD_BAD_NODE;
    int64_t rc = check_opcaches(st);
    return rc ? rc
              : quantify_core(st, op == 0 ? T_EX : T_FA, f, cid, cube,
                              cube_len, max_level);
}

int64_t bdd_and_exists(const bdd_state *st, int64_t f, int64_t g,
                       int64_t cid, const int64_t *cube, int64_t cube_len,
                       int64_t max_level) {
    if (bad_node(st, f) || bad_node(st, g)) return BDD_BAD_NODE;
    int64_t rc = check_opcaches(st);
    return rc ? rc
              : and_exists_core(st, f, g, cid, cube, cube_len, max_level);
}

/* -- Table maintenance ---------------------------------------------- */

/* Zero the prefix of every buffer that the manager's current life used:
 * the node arrays up to the node count, the unique table and each
 * allocated cache up to its mask, and the stats and control block.
 * Every word past those prefixes is zero already, so the buffers end up
 * all zero; BDDManager.reset then writes the fresh control values and
 * the terminals. */
void bdd_clear(const bdd_state *st) {
    int64_t *ctrl = st->ctrl;
    size_t nodes = (size_t)ctrl[C_NNODES] * sizeof(int64_t);
    memset(st->level, 0, nodes);
    memset(st->lo, 0, nodes);
    memset(st->hi, 0, nodes);
    memset(st->uniq, 0, (size_t)(ctrl[C_UNIQ_MASK] + 1) * sizeof(int64_t));
    for (int64_t t = 0; t <= T_AE; t++) {
        if (ctrl[C_MASK + t] == 0) continue; /* unallocated: nothing used */
        int64_t *arrs[3];
        int k = table_arrays(st, t, arrs);
        for (int i = 0; i < k; i++)
            memset(arrs[i], 0,
                   (size_t)(ctrl[C_MASK + t] + 1) * sizeof(int64_t));
    }
    memset(st->stat_arr, 0, N_STATS * sizeof(int64_t));
    memset(ctrl, 0, (C_USED + T_AE + 1) * sizeof(int64_t));
}

/* Double the unique table to ``new_mask`` in place — its array already
 * holds new_mask + 1 slots — and re-seat every live node (all internal
 * nodes are always live: there is no garbage collection). */
void bdd_grow_unique(const bdd_state *st, int64_t new_mask) {
    int64_t *ctrl = st->ctrl, *slots = st->uniq;
    const int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    uint64_t mask = (uint64_t)new_mask;
    memset(slots, 0, (size_t)(ctrl[C_UNIQ_MASK] + 1) * sizeof(int64_t));
    int64_t n = ctrl[C_NNODES];
    for (int64_t node = 2; node < n; node++) {
        uint64_t slot = ((uint64_t)level[node] * M1 +
                         (uint64_t)loa[node] * M2 +
                         (uint64_t)hia[node] * M3) & mask;
        while (slots[slot] != 0)
            slot = (slot + 1) & mask;
        slots[slot] = node;
    }
    ctrl[C_UNIQ_MASK] = new_mask;
}

/* Double cache table t to ``new_mask`` in place; its arrays already hold
 * new_mask + 1 slots.  An op cache drops its entries (each live one
 * counts as an eviction).  A quantify cache re-seats every entry,
 * visiting the old slots in index order exactly as the Python rehash
 * loop does, so both kernels leave the same layout; occupancy is
 * unchanged (the rehash is lossless).  Returns 0, or BDD_NOMEM when the
 * copy of the old entries cannot be allocated (the table is then
 * untouched). */
int64_t bdd_grow_table(const bdd_state *st, int64_t t, int64_t new_mask) {
    int64_t *ctrl = st->ctrl;
    int64_t *arrs[3];
    int k = table_arrays(st, t, arrs);
    size_t old_cap = (size_t)(ctrl[C_MASK + t] + 1);
    if (t < N_OPCACHES) {
        for (int i = 0; i < k; i++)
            memset(arrs[i], 0, old_cap * sizeof(int64_t));
        st->stat_arr[S_EVICTED] += ctrl[C_USED + t];
        ctrl[C_USED + t] = 0;
        ctrl[C_MASK + t] = new_mask;
        return 0;
    }
    int64_t *old = malloc(old_cap * (size_t)k * sizeof(int64_t));
    if (!old) return BDD_NOMEM;
    for (int i = 0; i < k; i++) {
        memcpy(old + i * old_cap, arrs[i], old_cap * sizeof(int64_t));
        memset(arrs[i], 0, old_cap * sizeof(int64_t));
    }
    uint64_t mask = (uint64_t)new_mask;
    const int64_t *ok = old, *ov = old + (k - 1) * old_cap;
    const int64_t *ok2 = old + old_cap; /* and_exists only */
    int64_t *nk = arrs[0], *nv = arrs[k - 1];
    for (size_t i = 0; i < old_cap; i++) {
        int64_t key = ok[i];
        if (key == 0) continue;
        uint64_t mix = (uint64_t)(key >> 31) * M1 +
                       (uint64_t)(key & 0x7FFFFFFF) * M2;
        if (t == T_AE) mix += (uint64_t)ok2[i] * M3;
        uint64_t slot = mix & mask;
        while (nk[slot] != 0)
            slot = (slot + 1) & mask;
        nk[slot] = key;
        if (t == T_AE) arrs[1][slot] = ok2[i];
        nv[slot] = ov[i];
    }
    free(old);
    ctrl[C_MASK + t] = new_mask;
    return 0;
}

/* -- Builder walks ---------------------------------------------------
 * Kernel versions of the Python node builders in repro.bdd.builders and
 * repro.bdd.compose.  Each makes its node, ``ite`` and AND/OR calls in
 * the order of the Python walk, with the public entries' short-circuits
 * and entry-time op-cache check before each, so both produce the same
 * nodes, the same caches and the same statistics.  On a growth request
 * the entry returns the code and the manager calls it again from the
 * top; what the walk finished lives on in its ``bdd_walk``, so the
 * restart re-runs only the operation that asked for the growth, exactly
 * as a growth restart of that single operation would. */

/* Scratch state of one builder entry, kept across its restarts.  The
 * manager owns one, all zero between entries; bdd_walk_clear frees
 * what an entry allocated and zeroes it again. */
typedef struct {
    int64_t *memo;     /* (node, result) pairs, open-addressed; node 0 = empty */
    int64_t memo_mask; /* slot count - 1; 0 while unallocated */
    int64_t memo_used;
    int64_t *table;    /* level -> substitution node / target variable */
    int64_t table_len;
    int64_t *log;      /* transfer: (source, target) pairs, finishing order */
    int64_t log_len;
    int64_t log_cap;
    int64_t step;      /* count_relation: the next weight */
    int64_t acc;       /* count_relation: the relation so far */
    int64_t part;      /* count_relation: finished AND + 1, or 0 */
    int64_t err;       /* after BDD_BAD_VAR: the source level */
} bdd_walk;

#define MEMO_INIT 64
#define NO_ENTRY INT64_MIN /* a level without substitution / mapping */

void bdd_walk_clear(bdd_walk *w) {
    free(w->memo);
    free(w->table);
    free(w->log);
    memset(w, 0, sizeof(*w));
}

/* The memo's result for ``node`` (>= 2), or -1. */
static inline int64_t memo_get(const bdd_walk *w, int64_t node) {
    if (w->memo_mask == 0) return -1;
    uint64_t mask = (uint64_t)w->memo_mask;
    uint64_t slot = ((uint64_t)node * M1) & mask;
    for (;;) {
        int64_t key = w->memo[2 * slot];
        if (key == node) return w->memo[2 * slot + 1];
        if (key == 0) return -1;
        slot = (slot + 1) & mask;
    }
}

/* Record ``node`` -> ``value``; the memo doubles at half load, so it is
 * sized to the nodes the walk visits, not to the manager.  Returns 0 on
 * allocation failure. */
static int memo_put(bdd_walk *w, int64_t node, int64_t value) {
    if ((w->memo_used + 1) * 2 > w->memo_mask + 1) {
        int64_t old_cap = w->memo_mask ? w->memo_mask + 1 : 0;
        int64_t cap = old_cap ? 2 * old_cap : MEMO_INIT;
        int64_t *fresh = calloc((size_t)(2 * cap), sizeof(int64_t));
        if (!fresh) return 0;
        uint64_t mask = (uint64_t)(cap - 1);
        for (int64_t i = 0; i < old_cap; i++) {
            int64_t key = w->memo[2 * i];
            if (key == 0) continue;
            uint64_t slot = ((uint64_t)key * M1) & mask;
            while (fresh[2 * slot] != 0)
                slot = (slot + 1) & mask;
            fresh[2 * slot] = key;
            fresh[2 * slot + 1] = w->memo[2 * i + 1];
        }
        free(w->memo);
        w->memo = fresh;
        w->memo_mask = cap - 1;
    }
    uint64_t mask = (uint64_t)w->memo_mask;
    uint64_t slot = ((uint64_t)node * M1) & mask;
    while (w->memo[2 * slot] != 0 && w->memo[2 * slot] != node)
        slot = (slot + 1) & mask;
    if (w->memo[2 * slot] == 0) w->memo_used += 1;
    w->memo[2 * slot] = node;
    w->memo[2 * slot + 1] = value;
    return 1;
}

/* Fill the walk's level table from ``n`` (key, value) pairs: entry l
 * holds the value of key l, or NO_ENTRY; keys outside 0..len-1 name no
 * level of the walked nodes and are dropped.  NULL keys map every level
 * to itself.  With ``nodes`` set the values are substitution nodes of
 * ``st`` and each must be one.  Returns 0, BDD_NOMEM or BDD_BAD_NODE. */
int64_t bdd_walk_table(const bdd_state *st, bdd_walk *w, const int64_t *keys,
                       const int64_t *vals, int64_t n, int64_t len,
                       int64_t nodes) {
    free(w->table);
    w->table = malloc((size_t)(len > 0 ? len : 1) * sizeof(int64_t));
    w->table_len = len;
    if (!w->table) return BDD_NOMEM;
    for (int64_t l = 0; l < len; l++)
        w->table[l] = keys ? NO_ENTRY : l;
    for (int64_t i = 0; keys && i < n; i++) {
        if (nodes && bad_node(st, vals[i])) return BDD_BAD_NODE;
        if (keys[i] >= 0 && keys[i] < len) w->table[keys[i]] = vals[i];
    }
    return 0;
}

/* Weight functions: ``out[j]`` = "exactly j of ``vars`` are 1" for
 * j = 0..m, over ``n`` distinct declared variables sorted from the
 * highest index down.  Mirrors builders._py_weight_functions: variable
 * by variable, one mk per weight j = 0..m.  Only mk runs here, and mk
 * finds a node it made before, so a restart simply starts over.
 * Returns 0 or a growth code. */
int64_t bdd_weight_functions(const bdd_state *st, const int64_t *vars,
                             int64_t n, int64_t m, int64_t *out) {
    out[0] = BDD_TRUE;
    for (int64_t j = 1; j <= m; j++) out[j] = BDD_FALSE;
    for (int64_t i = 0; i < n; i++) {
        int64_t take = BDD_FALSE; /* old out[j - 1] */
        for (int64_t j = 0; j <= m; j++) {
            int64_t skip = out[j];
            int64_t node = mk(st, vars[i], skip, take);
            if (node < 0) return node;
            take = skip;
            out[j] = node;
        }
    }
    return 0;
}

/* The encoding relation K(c, e) = OR_v w_v(c) & kappa_v(e) over the
 * weight table ``weights`` (w_0..w_{n-1}) and the little-endian counter
 * ``bits`` (distinct declared variables).  Mirrors
 * builders._py_count_relation_from: for each weight that is not FALSE,
 * the cube kappa_v from the highest bit variable down, its AND with
 * w_v, and the OR into the relation.  The walk keeps the relation, the
 * next weight and a finished AND, so a restart resumes at the operation
 * that asked for growth.  Returns the relation or a negative code. */
int64_t bdd_count_relation(const bdd_state *st, bdd_walk *w,
                           const int64_t *weights, int64_t n,
                           const int64_t *bits, int64_t nbits) {
    for (int64_t i = 0; i < n; i++)
        if (bad_node(st, weights[i])) return BDD_BAD_NODE;
    for (; w->step < n; w->step++) {
        int64_t value = w->step, weight = weights[value];
        if (weight == BDD_FALSE) continue;
        if (w->part == 0) {
            int64_t cube = BDD_TRUE, above = INT64_MAX;
            for (int64_t k = 0; k < nbits; k++) {
                /* The next bit down: the largest variable below the
                 * last one placed (bits are distinct). */
                int64_t pos = -1;
                for (int64_t b = 0; b < nbits; b++)
                    if (bits[b] < above && (pos < 0 || bits[b] > bits[pos]))
                        pos = b;
                above = bits[pos];
                int64_t one = pos < 63 ? (value >> pos) & 1 : 0;
                cube = mk(st, above, one ? BDD_FALSE : cube,
                          one ? cube : BDD_FALSE);
                if (cube < 0) return cube;
            }
            int64_t part = apply_entry(st, T_AND, weight, cube);
            if (part < 0) return part;
            w->part = part + 1;
        }
        int64_t relation = apply_entry(st, T_OR, w->acc, w->part - 1);
        if (relation < 0) return relation;
        w->acc = relation;
        w->part = 0;
    }
    return w->acc;
}

/* Simultaneous substitution of the walk's level table (set by
 * bdd_walk_table with nodes) into ``f``.  Mirrors
 * compose._py_vector_compose: a post-order walk that finishes the lo
 * subtree, then the hi subtree, then takes the level's substitute (or
 * makes its literal node) and calls ite(selector, hi, lo).  Finished
 * nodes live on in the memo across restarts.  Returns the result or a
 * negative code. */
int64_t bdd_vector_compose(const bdd_state *st, bdd_walk *w, int64_t f) {
    if (bad_node(st, f)) return BDD_BAD_NODE;
    if (f <= 1) return f;
    const int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    if (!push_frame(&s, 0, f, 0, 0)) rc = BDD_NOMEM;
    while (rc == 0 && s.top > 0) {
        frame_t fr = s.frames[--s.top];
        int64_t n = fr.a;
        if (fr.tag == 0) {
            int64_t hit = n <= 1 ? n : memo_get(w, n);
            if (hit >= 0) {
                if (!push_result(&s, hit)) rc = BDD_NOMEM;
                continue;
            }
            if (!push_frame(&s, 1, n, 0, 0) ||
                !push_frame(&s, 0, hia[n], 0, 0) ||
                !push_frame(&s, 0, loa[n], 0, 0))
                rc = BDD_NOMEM;
        } else {
            int64_t hi = s.results[--s.rtop];
            int64_t lo = s.results[s.rtop - 1];
            int64_t lvl = level[n];
            int64_t sel = lvl < w->table_len ? w->table[lvl] : NO_ENTRY;
            if (sel == NO_ENTRY) sel = mk(st, lvl, BDD_FALSE, BDD_TRUE);
            int64_t node = sel < 0 ? sel : ite_entry(st, sel, hi, lo);
            if (node < 0) { rc = node; break; }
            if (!memo_put(w, n, node)) { rc = BDD_NOMEM; break; }
            s.results[s.rtop - 1] = node;
        }
    }
    if (rc == 0) rc = s.results[0];
    stacks_free(&s);
    return rc;
}

/* Rebuild the ``nroots`` nodes ``roots`` of manager ``src`` inside
 * ``st``, replacing each root by its copy once all are done.  The walk's
 * level table maps source levels to target variables (``nvars`` are
 * declared).  Mirrors compose._py_transfer_multi: roots in order, each a
 * post-order walk that finishes the lo subtree, then the hi subtree,
 * then makes the target literal node and calls ite(literal, hi, lo).
 * With ``log`` set, every finished node is appended to the walk's log.
 * Returns 0 or a negative code; after BDD_BAD_VAR the walk's ``err``
 * names the source level the table lacks or maps outside 0..nvars-1. */
int64_t bdd_transfer(const bdd_state *src, const bdd_state *st, bdd_walk *w,
                     int64_t *roots, int64_t nroots, int64_t nvars,
                     int64_t log) {
    for (int64_t i = 0; i < nroots; i++)
        if (bad_node(src, roots[i])) return BDD_BAD_NODE;
    const int64_t *level = src->level, *loa = src->lo, *hia = src->hi;
    stacks_t s;
    if (!stacks_init(&s)) return BDD_NOMEM;
    int64_t rc = 0;
    for (int64_t i = 0; rc == 0 && i < nroots; i++) {
        if (roots[i] <= 1 || memo_get(w, roots[i]) >= 0) continue;
        s.top = 0;
        if (!push_frame(&s, 0, roots[i], 0, 0)) rc = BDD_NOMEM;
        while (rc == 0 && s.top > 0) {
            frame_t fr = s.frames[--s.top];
            int64_t n = fr.a;
            if (n <= 1 || memo_get(w, n) >= 0) continue;
            if (fr.tag == 0) {
                if (!push_frame(&s, 1, n, 0, 0) ||
                    !push_frame(&s, 0, hia[n], 0, 0) ||
                    !push_frame(&s, 0, loa[n], 0, 0))
                    rc = BDD_NOMEM;
                continue;
            }
            int64_t lo = loa[n] <= 1 ? loa[n] : memo_get(w, loa[n]);
            int64_t hi = hia[n] <= 1 ? hia[n] : memo_get(w, hia[n]);
            int64_t lvl = level[n];
            int64_t var = lvl < w->table_len ? w->table[lvl] : NO_ENTRY;
            if (var < 0 || var >= nvars) {
                w->err = lvl;
                rc = BDD_BAD_VAR;
                break;
            }
            int64_t lit = mk(st, var, BDD_FALSE, BDD_TRUE);
            int64_t node = lit < 0 ? lit : ite_entry(st, lit, hi, lo);
            if (node < 0) { rc = node; break; }
            if (!memo_put(w, n, node)) { rc = BDD_NOMEM; break; }
            if (log) {
                if (w->log_len == w->log_cap) {
                    int64_t cap = w->log_cap ? 2 * w->log_cap : MEMO_INIT;
                    int64_t *grown =
                        realloc(w->log, (size_t)(2 * cap) * sizeof(int64_t));
                    if (!grown) { rc = BDD_NOMEM; break; }
                    w->log = grown;
                    w->log_cap = cap;
                }
                w->log[2 * w->log_len] = n;
                w->log[2 * w->log_len + 1] = node;
                w->log_len += 1;
            }
        }
    }
    stacks_free(&s);
    if (rc != 0) return rc;
    for (int64_t i = 0; i < nroots; i++)
        if (roots[i] > 1) roots[i] = memo_get(w, roots[i]);
    return 0;
}
