/* Native operator cores for the repro BDD manager.
 *
 * This file is compiled on demand (``cc -O2 -shared -fPIC``) by
 * ``repro.bdd.native`` and loaded through cffi's ABI mode, with the
 * declarations precompiled into an out-of-line module.  It operates
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
 *
 * Every exported entry that takes a state also counts the call in the
 * state's ``calls`` word, once per call from Python: a growth restart is
 * a call of its own, and an entry that chains others — bdd_run running a
 * step program — runs their static bodies, so a chain counts once.  The
 * word sits outside ``stat_arr``,
 * so the cache statistics of an entry and of the Python loop it
 * replaces stay comparable.
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

/* Cache tables, in ctrl[], stats[] and growth-code order. */
enum { T_AND, T_OR, T_XOR, T_NOT, T_ITE, T_EX, T_FA, T_AE, N_OPCACHES = T_EX };

/* ctrl[] layout — keep in sync with repro.bdd.manager.  Table t keeps
 * its slot mask at C_MASK + t (0 while unallocated) and its live-entry
 * count at C_USED + t. */
enum {
    C_NNODES = 0,
    C_NODECAP = 1,
    C_UNIQ_MASK = 2,
    C_UNIQ_USED = 3,
    C_MASK = 4,
    C_USED = 12,
};

/* stats[] layout — keep in sync with repro.bdd.manager.  Cache table t
 * counts its hits at S_HIT(t) and its misses at S_MISS(t); the
 * unique-table inserts, cache clears and evictions follow. */
#define S_HIT(t) (2 * (t))
#define S_MISS(t) (2 * (t) + 1)
enum { S_INSERTS = S_HIT(T_AE + 1), S_CLEARS, S_EVICTED, N_STATS };

/* Every buffer the kernel reads or writes — keep the field order in
 * sync with repro.bdd.native._CDEF.  A NULL cache field means that
 * cache is not allocated (its ctrl mask is then 0).  ``calls`` points at
 * the manager's one-word kernel call counter. */
typedef struct {
    int64_t *ctrl;
    int64_t *level, *lo, *hi;
    int64_t *uniq;
    int64_t *and_k, *and_v, *or_k, *or_v, *xor_k, *xor_v, *not_k, *not_v;
    int64_t *ite_ka, *ite_kb, *ite_v;
    int64_t *ex_k, *ex_v, *fa_k, *fa_v;
    int64_t *ae_k1, *ae_k2, *ae_v;
    int64_t *stat_arr;
    int64_t *calls;
} bdd_state;

/* Count one call from Python into an exported entry. */
static inline void count_call(const bdd_state *st) { st->calls[0] += 1; }

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
            stats[S_HIT(T_NOT)] += 1;
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
                stats[S_HIT(T_NOT)] += 1;
                if (!push_result(&s, not_v[slot])) rc = BDD_NOMEM;
                continue;
            }
            stats[S_MISS(T_NOT)] += 1;
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
    int64_t *arrs[3];
    table_arrays(st, op, arrs);
    int64_t *ck = arrs[0], *cv = arrs[1];
    uint64_t cmask = (uint64_t)ctrl[C_MASK + op];
    int64_t *cused = &ctrl[C_USED + op];
    {
        int64_t key = (f << 31) | g;
        uint64_t slot = ((uint64_t)f * M1 + (uint64_t)g * M2) & cmask;
        if (ck[slot] == key) {
            stats[S_HIT(op)] += 1;
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
                stats[S_HIT(op)] += 1;
                if (!push_result(&s, cv[slot])) rc = BDD_NOMEM;
                continue;
            }
            stats[S_MISS(op)] += 1;
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
            stats[S_HIT(T_ITE)] += 1;
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
                stats[S_HIT(T_ITE)] += 1;
                if (!push_result(&s, ite_v[slot])) rc = BDD_NOMEM;
                continue;
            }
            stats[S_MISS(T_ITE)] += 1;
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

/* manager.negate as a whole. */
static int64_t negate_entry(const bdd_state *st, int64_t f) {
    if (f <= 1) return 1 - f;
    int64_t rc = check_opcaches(st);
    return rc ? rc : negate_core(st, f);
}

/* manager.apply_and/apply_or/apply_xor as a whole, for the builder
 * walks: the short-circuits (XOR with a TRUE operand through
 * manager.negate), then the entry-time op-cache check, then the core. */
static int64_t apply_entry(const bdd_state *st, int64_t op, int64_t a,
                           int64_t b) {
    int64_t r;
    if (op == T_XOR) {
        if (a == b) return BDD_FALSE;
        if (a == BDD_FALSE) return b;
        if (b == BDD_FALSE) return a;
        if (a == BDD_TRUE || b == BDD_TRUE)
            return negate_entry(st, a == BDD_TRUE ? b : a);
    } else {
        r = apply_shortcut(op, a, b);
        if (r >= 0) return r;
    }
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

/* The (node << 31 | cid)-keyed quantify cache's value for (f, cid), or
 * -1. */
static inline int64_t q_get(const int64_t *qk, const int64_t *qv,
                            uint64_t qmask, int64_t f, int64_t cid) {
    int64_t key = (f << 31) | cid;
    uint64_t slot = ((uint64_t)f * M1 + (uint64_t)cid * M2) & qmask;
    while (qk[slot] != 0) {
        if (qk[slot] == key) return qv[slot];
        slot = (slot + 1) & qmask;
    }
    return -1;
}

/* Existential (q = T_EX) / universal (q = T_FA) abstraction: q names
 * the cache table, whose quantifier fixes the dominating terminal a
 * quantified level stops early at (TRUE for ∃, FALSE for ∀) and the
 * connective that combines its cofactors (OR for ∃, AND for ∀).
 * Mirrors BDDManager._py_quantify frame for frame: tag 0 expand, tag 1
 * rebuild an unquantified level, tag 2 lo-cofactor of a quantified level
 * done (stop early), tag 3 both cofactors done (combine). */
static int64_t quantify_core(const bdd_state *st, int64_t q, int64_t f,
                             int64_t cid, const int64_t *cube,
                             int64_t cube_len, int64_t max_level) {
    int64_t *ctrl = st->ctrl, *stats = st->stat_arr;
    int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    int64_t *arrs[3];
    table_arrays(st, q, arrs);
    int64_t *qk = arrs[0], *qv = arrs[1];
    uint64_t qmask = (uint64_t)ctrl[C_MASK + q];
    int64_t *quse = &ctrl[C_USED + q];
    int64_t early = q == T_EX ? BDD_TRUE : BDD_FALSE;
    int64_t combine = q == T_EX ? T_OR : T_AND;
    if (f <= 1 || level[f] > max_level) return f;
    {
        int64_t hit = q_get(qk, qv, qmask, f, cid);
        if (hit >= 0) {
            stats[S_HIT(q)] += 1;
            return hit;
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
            int64_t cached = q_get(qk, qv, qmask, n, cid);
            if (cached >= 0) {
                stats[S_HIT(q)] += 1;
                if (!push_result(&s, cached)) rc = BDD_NOMEM;
                continue;
            }
            stats[S_MISS(q)] += 1;
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
 * BDDManager._py_and_exists; pair frames pack (a << 31 | b) into
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
                stats[S_HIT(T_AE)] += 1;
                if (!push_result(&s, cached)) rc = BDD_NOMEM;
                continue;
            }
            stats[S_MISS(T_AE)] += 1;
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
    count_call(st);
    if (bad_node(st, f)) return BDD_BAD_NODE;
    int64_t rc = check_opcaches(st);
    return rc ? rc : negate_core(st, f);
}

int64_t bdd_apply(const bdd_state *st, int64_t op, int64_t f, int64_t g) {
    count_call(st);
    if (bad_node(st, f) || bad_node(st, g)) return BDD_BAD_NODE;
    int64_t rc = check_opcaches(st);
    return rc ? rc : apply_core(st, op, f, g);
}

int64_t bdd_ite(const bdd_state *st, int64_t f, int64_t g, int64_t h) {
    count_call(st);
    if (bad_node(st, f) || bad_node(st, g) || bad_node(st, h))
        return BDD_BAD_NODE;
    int64_t rc = check_opcaches(st);
    return rc ? rc : ite_core(st, f, g, h);
}

/* Exists (op T_EX) / forall (op T_FA) over the sorted levels ``cube``;
 * op is the table index, as bdd_apply's is.  The caller has allocated
 * the quantify caches. */
int64_t bdd_quantify(const bdd_state *st, int64_t op, int64_t f,
                     int64_t cid, const int64_t *cube, int64_t cube_len,
                     int64_t max_level) {
    count_call(st);
    if (bad_node(st, f)) return BDD_BAD_NODE;
    int64_t rc = check_opcaches(st);
    return rc ? rc : quantify_core(st, op, f, cid, cube, cube_len, max_level);
}

int64_t bdd_and_exists(const bdd_state *st, int64_t f, int64_t g,
                       int64_t cid, const int64_t *cube, int64_t cube_len,
                       int64_t max_level) {
    count_call(st);
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
    count_call(st);
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
    count_call(st);
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
    count_call(st);
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
 * repro.bdd.compose, run as bdd_run ops.  Each makes its node, ``ite``
 * and AND/OR calls in the order of the Python walk, with the public
 * entries' short-circuits and entry-time op-cache check before each, so
 * both produce the same nodes, the same caches and the same statistics.
 * On a growth request the walk returns the code and the manager calls
 * bdd_run again; what the walk finished lives on in its ``bdd_walk``,
 * so the restart re-runs only the operation that asked for the growth,
 * exactly as a growth restart of that single operation would. */

/* Scratch state of one walk, loop or program run, kept across its
 * restarts (field order as in repro.bdd.native._CDEF).  The manager
 * owns one, all zero between entries; bdd_walk_clear frees what an
 * entry allocated and zeroes it again. */
typedef struct {
    int64_t *memo;     /* (node, result) pairs, open-addressed; node 0 = empty */
    int64_t memo_mask; /* slot count - 1; 0 while unallocated */
    int64_t memo_used;
    int64_t *table;    /* level -> substitution node / target variable */
    int64_t table_len;
    int64_t *log;      /* isop: the cover records, log_len words */
    int64_t log_len;
    int64_t log_cap;
    int64_t step;      /* count_relation and the loops: the next iteration */
    int64_t acc;       /* the value so far: the relation, U, the fold, l;
                          isop: g */
    int64_t acc2;      /* reduce_support: u; isop: g's cover */
    int64_t part[3];   /* the iteration's finished operations + 1, or 0 */
    int64_t started;   /* the loops: nonzero once acc (and acc2) are seeded */
    int64_t err;       /* after BDD_BAD_VAR: the source level */
    int64_t stage;     /* bdd_run: the program counter */
    int64_t *stack;    /* isop: the open frames, then the cube expansion's */
    int64_t stack_len; /* words in use */
    int64_t stack_cap;
    int64_t *cubes;    /* isop: the cover, each cube's literal count, then
                          2 var + polarity per literal */
    int64_t cubes_len; /* words in use */
    int64_t cubes_cap;
} bdd_walk;

#define MEMO_INIT 64
#define NO_ENTRY INT64_MIN /* a level without substitution / mapping */

void bdd_walk_clear(bdd_walk *w) {
    free(w->memo);
    free(w->table);
    free(w->log);
    free(w->stack);
    free(w->cubes);
    memset(w, 0, sizeof(*w));
}

/* Room for ``n`` more words past ``len`` in the growable buffer *buf of
 * ``*cap`` words (doubling from MEMO_INIT).  Returns a pointer to the
 * first free word, or NULL on allocation failure (the buffer is then
 * untouched). */
static int64_t *reserve(int64_t **buf, int64_t len, int64_t *cap, int64_t n) {
    if (len + n > *cap) {
        int64_t grown = *cap ? *cap : MEMO_INIT;
        while (grown < len + n) grown *= 2;
        int64_t *fresh = realloc(*buf, (size_t)grown * sizeof(int64_t));
        if (!fresh) return NULL;
        *buf = fresh;
        *cap = grown;
    }
    return *buf + len;
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

/* (Re)allocate the walk's level table with ``len`` entries, each
 * NO_ENTRY.  Returns 0 or BDD_NOMEM. */
static int64_t table_init(bdd_walk *w, int64_t len) {
    free(w->table);
    w->table = malloc((size_t)(len > 0 ? len : 1) * sizeof(int64_t));
    w->table_len = len;
    if (!w->table) return BDD_NOMEM;
    for (int64_t l = 0; l < len; l++) w->table[l] = NO_ENTRY;
    return 0;
}

/* Weight functions: ``out[j]`` = "exactly j of ``vars`` are 1" for
 * j = 0..m, over ``n`` distinct declared variables in ascending order.
 * Mirrors builders._py_weight_functions: variable by variable from the
 * highest index down, one mk per weight j = 0..m.  Only mk runs here,
 * and mk finds a node it made before, so a restart simply starts over.
 * Returns 0 or a growth code. */
static int64_t weight_functions(const bdd_state *st, const int64_t *vars,
                                int64_t n, int64_t m, int64_t *out) {
    out[0] = BDD_TRUE;
    for (int64_t j = 1; j <= m; j++) out[j] = BDD_FALSE;
    for (int64_t i = n - 1; i >= 0; i--) {
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
static int64_t count_relation(const bdd_state *st, bdd_walk *w,
                              const int64_t *weights, int64_t n,
                              const int64_t *bits, int64_t nbits) {
    for (int64_t i = 0; i < n; i++)
        if (bad_node(st, weights[i])) return BDD_BAD_NODE;
    for (; w->step < n; w->step++) {
        int64_t value = w->step, weight = weights[value];
        if (weight == BDD_FALSE) continue;
        if (w->part[0] == 0) {
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
            w->part[0] = part + 1;
        }
        int64_t relation = apply_entry(st, T_OR, w->acc, w->part[0] - 1);
        if (relation < 0) return relation;
        w->acc = relation;
        w->part[0] = 0;
    }
    return w->acc;
}

/* Simultaneous substitution of the walk's level table (set by the
 * rename op or by param_replace) into ``f``.  Mirrors
 * compose._py_vector_compose: a post-order walk that finishes the lo
 * subtree, then the hi subtree, then takes the level's substitute (or
 * makes its literal node) and calls ite(selector, hi, lo).  Finished
 * nodes live on in the memo across restarts.  Returns the result or a
 * negative code. */
static int64_t vector_compose(const bdd_state *st, bdd_walk *w, int64_t f) {
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
 * ``st``; the copy of each root that is not a terminal is then in the
 * walk's memo.  The walk's level table maps source levels to target
 * variables (``nvars`` are declared).  Mirrors
 * compose._py_transfer_multi: roots in order, each a post-order walk
 * that finishes the lo subtree, then the hi subtree, then makes the
 * target literal node and calls ite(literal, hi, lo).  Returns 0 or a
 * negative code; after BDD_BAD_VAR the walk's ``err`` names the source
 * level the table lacks or maps outside 0..nvars-1. */
static int64_t transfer_walk(const bdd_state *src, const bdd_state *st,
                             bdd_walk *w, const int64_t *roots,
                             int64_t nroots, int64_t nvars) {
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
        }
    }
    stacks_free(&s);
    return rc;
}

/* -- Loop entries ------------------------------------------------------
 * The per-variable and per-model loops of the bi-decomposition step,
 * each as one call: the parameterized quantifications and replacements
 * of repro.bidec.parameterize (bdd_run ops), Interval.reduce_support,
 * count.iter_models and manager.conjoin/disjoin over a sequence.  Each
 * makes the calls of its Python loop in the same order, with each public
 * entry's short-circuits, Python-side cache probe and entry-time
 * op-cache check before its core, so both make the same nodes with the
 * same cache traffic.  A loop keeps its position and the current
 * iteration's finished operations in its bdd_walk, so a growth restart
 * re-runs only the operation that asked for the growth. */

/* quantify.exists (T_EX) / forall (T_FA) on the interned cube ``cid``
 * (the sorted levels ``cube``, the deepest ``max_level``) as a whole:
 * the level short-circuit; the quantify caches' allocation where
 * exists/forall make it, as the growth code of table q while they are
 * unallocated; the Python-side cache probe, whose hit skips the
 * op-cache check; then the op-cache check and the core. */
static int64_t quantify_entry(const bdd_state *st, int64_t q, int64_t f,
                              int64_t cid, const int64_t *cube,
                              int64_t cube_len, int64_t max_level) {
    if (f <= 1 || st->level[f] > max_level) return f;
    if (st->ctrl[C_MASK + T_EX] == 0) return BDD_GROW_TABLE(q);
    int64_t *arrs[3];
    table_arrays(st, q, arrs);
    uint64_t mask = (uint64_t)st->ctrl[C_MASK + q];
    int64_t hit = q_get(arrs[0], arrs[1], mask, f, cid);
    if (hit >= 0) {
        st->stat_arr[S_HIT(q)] += 1;
        return hit;
    }
    int64_t rc = check_opcaches(st);
    return rc ? rc : quantify_core(st, q, f, cid, cube, cube_len, max_level);
}

/* parameterized_forall (op 1) / parameterized_exists (op 0): from
 * U = f, for each variable i from the walk's step,
 * U <- ite(c_i, U, Q x_i . U) with Q x_i on the interned cube cids[i].
 * Before each variable the loop stops once the manager holds more than
 * ``budget`` nodes; the walk's step then names the first decision
 * variable skipped (node counts only grow, so the rest are skipped
 * too).  The walk keeps U (acc), the finished quantification (part[0])
 * and whether the iteration passed its budget check (part[1]), so a
 * restart finishes an iteration the Python loop would finish.  Returns
 * U or a negative code. */
static int64_t param_quantify(const bdd_state *st, bdd_walk *w, int64_t op,
                              int64_t f, const int64_t *xs,
                              const int64_t *cids, const int64_t *cs,
                              int64_t n, int64_t budget) {
    if (bad_node(st, f)) return BDD_BAD_NODE;
    if (!w->started) {
        w->acc = f;
        w->started = 1;
    }
    int64_t q = op == 0 ? T_EX : T_FA;
    for (; w->step < n; w->step++) {
        int64_t i = w->step;
        if (w->part[1] == 0) {
            if (st->ctrl[C_NNODES] > budget) break;
            w->part[1] = 1;
        }
        if (w->part[0] == 0) {
            int64_t r = quantify_entry(st, q, w->acc, cids[i], &xs[i], 1, xs[i]);
            if (r < 0) return r;
            w->part[0] = r + 1;
        }
        int64_t lit = mk(st, cs[i], BDD_FALSE, BDD_TRUE);
        if (lit < 0) return lit;
        int64_t r = ite_entry(st, lit, w->acc, w->part[0] - 1);
        if (r < 0) return r;
        w->acc = r;
        w->part[0] = w->part[1] = 0;
    }
    return w->acc;
}

/* parameterized_replace (c2s NULL) / parameterized_replace_pair: for
 * each i from the walk's step, the literals of c_i (or of c1_i and
 * c2_i, then their AND), x_i and y_i, then ite(c, x_i, y_i), written
 * straight into the walk's level table (``len`` levels) at x_i; then
 * the vector_compose walk of f over that table.  The walk keeps the
 * finished AND (part[0]), and vector_compose its memo.  Returns the
 * result or a negative code. */
static int64_t param_replace(const bdd_state *st, bdd_walk *w, int64_t f,
                             const int64_t *xs, const int64_t *ys,
                             const int64_t *c1s, const int64_t *c2s, int64_t n,
                             int64_t len) {
    if (bad_node(st, f)) return BDD_BAD_NODE;
    if (!w->started) {
        if (table_init(w, len)) return BDD_NOMEM;
        w->started = 1;
    }
    for (; w->step < n; w->step++) {
        int64_t i = w->step;
        int64_t sel = mk(st, c1s[i], BDD_FALSE, BDD_TRUE);
        if (sel < 0) return sel;
        if (c2s) {
            if (w->part[0] == 0) {
                int64_t c2 = mk(st, c2s[i], BDD_FALSE, BDD_TRUE);
                if (c2 < 0) return c2;
                int64_t both = apply_entry(st, T_AND, sel, c2);
                if (both < 0) return both;
                w->part[0] = both + 1;
            }
            sel = w->part[0] - 1;
        }
        int64_t x = mk(st, xs[i], BDD_FALSE, BDD_TRUE);
        if (x < 0) return x;
        int64_t y = mk(st, ys[i], BDD_FALSE, BDD_TRUE);
        if (y < 0) return y;
        int64_t r = ite_entry(st, sel, x, y);
        if (r < 0) return r;
        if (xs[i] >= 0 && xs[i] < w->table_len) w->table[xs[i]] = r;
        w->part[0] = 0;
    }
    return vector_compose(st, w, f);
}

/* Interval.reduce_support over the sorted support ``vars`` and their
 * interned one-variable cubes ``cids``: from [l, u] = [lower, upper],
 * for each variable i from the walk's step, e = ∃x l, then a = ∀x u,
 * then ¬e, then ¬e | a; when that is TRUE the interval becomes [e, a]
 * and dropped[i] is set (cleared otherwise).  The walk keeps l (acc), u
 * (acc2) and the iteration's finished operations (part[]).  Returns 0 or
 * a negative code; the caller reads the bounds off the walk. */
int64_t bdd_reduce_support(const bdd_state *st, bdd_walk *w, int64_t lower,
                           int64_t upper, const int64_t *vars,
                           const int64_t *cids, int64_t n, int64_t *dropped) {
    count_call(st);
    if (bad_node(st, lower) || bad_node(st, upper)) return BDD_BAD_NODE;
    if (!w->started) {
        w->acc = lower;
        w->acc2 = upper;
        w->started = 1;
    }
    int64_t *part = w->part;
    for (; w->step < n; w->step++) {
        int64_t i = w->step;
        if (part[0] == 0) {
            int64_t r = quantify_entry(st, T_EX, w->acc, cids[i], &vars[i], 1,
                                       vars[i]);
            if (r < 0) return r;
            part[0] = r + 1;
        }
        if (part[1] == 0) {
            int64_t r = quantify_entry(st, T_FA, w->acc2, cids[i], &vars[i], 1,
                                       vars[i]);
            if (r < 0) return r;
            part[1] = r + 1;
        }
        if (part[2] == 0) {
            int64_t r = negate_entry(st, part[0] - 1);
            if (r < 0) return r;
            part[2] = r + 1;
        }
        int64_t r = apply_entry(st, T_OR, part[2] - 1, part[1] - 1);
        if (r < 0) return r;
        dropped[i] = r == BDD_TRUE;
        if (r == BDD_TRUE) {
            w->acc = part[0] - 1;
            w->acc2 = part[1] - 1;
        }
        part[0] = part[1] = part[2] = 0;
    }
    return 0;
}

/* manager.conjoin (op 0) / disjoin (op 1) over ``n`` nodes: from TRUE
 * (FALSE), each operand checked when the fold reaches it, then the
 * public AND (OR) entry, stopping at FALSE (TRUE).  The walk keeps the
 * position (step) and the result so far (acc).  Returns the result or a
 * negative code. */
static int64_t fold(const bdd_state *st, bdd_walk *w, int64_t op,
                    const int64_t *nodes, int64_t n) {
    int64_t stop = op == T_AND ? BDD_FALSE : BDD_TRUE;
    if (!w->started) {
        w->acc = 1 - stop;
        w->started = 1;
    }
    for (; w->step < n; w->step++) {
        int64_t node = nodes[w->step];
        if (bad_node(st, node)) return BDD_BAD_NODE;
        int64_t r = apply_entry(st, op, w->acc, node);
        if (r < 0) return r;
        w->acc = r;
        if (r == stop) break;
    }
    return w->acc;
}

int64_t bdd_fold(const bdd_state *st, bdd_walk *w, int64_t op,
                 const int64_t *nodes, int64_t n) {
    count_call(st);
    return fold(st, w, op, nodes, n);
}

/* count.iter_models: the next models of ``root`` over the ``n`` sorted,
 * distinct variables ``order``, depth first with 0 before 1, in the
 * order the Python recursion yields them.  ``path`` keeps the
 * enumeration between calls and is all zero before the first: path[0]
 * is the phase (0 fresh, 1 backtrack from depth path[1], 2 done),
 * path[2 + d] the node at depth d (d = 0..n) and path[n + 3 + d] the
 * value taken there.  Up to ``cap`` models are written to ``out``, n
 * bytes each, the value of order[n - 1] first (the key order of the
 * Python dicts).  Returns how many; fewer than ``cap`` means the
 * enumeration is done.  No node is made, so nothing grows and nothing
 * restarts. */
static int64_t models(const bdd_state *st, int64_t root, const int64_t *order,
                      int64_t n, int64_t *path, char *out, int64_t cap) {
    if (bad_node(st, root)) return BDD_BAD_NODE;
    if (path[0] == 2) return 0;
    const int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    int64_t *nodes = path + 2, *vals = path + n + 3;
    int back = path[0] == 1;
    int64_t d = back ? path[1] : 0;
    int64_t count = 0;
    if (!back) nodes[0] = root;
    while (count < cap) {
        if (back) {
            /* Up to the deepest depth that took 0, and take 1 there. */
            while (d > 0 && vals[d - 1]) d--;
            if (d == 0) {
                path[0] = 2;
                return count;
            }
            d--;
            vals[d] = 1;
            int64_t node = nodes[d];
            nodes[d + 1] =
                node > 1 && level[node] == order[d] ? hia[node] : node;
            d++;
            back = 0;
            continue;
        }
        int64_t node = nodes[d];
        if (node == BDD_FALSE) {
            back = 1;
            continue;
        }
        if (d == n) {
            char *model = out + count * n;
            for (int64_t j = 0; j < n; j++) model[j] = (char)vals[n - 1 - j];
            count++;
            back = 1;
            continue;
        }
        vals[d] = 0;
        nodes[d + 1] = node > 1 && level[node] == order[d] ? loa[node] : node;
        d++;
    }
    path[0] = 1;
    path[1] = d;
    return count;
}

int64_t bdd_models(const bdd_state *st, int64_t root, const int64_t *order,
                   int64_t n, int64_t *path, char *out, int64_t cap) {
    count_call(st);
    return models(st, root, order, n, path, out, cap);
}

/* -- ISOP --------------------------------------------------------------
 * logic.sop.isop (Minato–Morreale) as one kernel walk.  It makes the
 * calls of the Python twin in the same order, with each public entry's
 * short-circuits and entry-time op-cache check, so both make the same
 * nodes with the same cache traffic. */

/* An open ISOP frame, the call isop(l, u) that is not a terminal case
 * or a memo hit: the interval, its top variable and the cofactors there,
 * the next operation (phase), the covers its three calls returned, then
 * the result of operation p at F_R + p. */
enum {
    F_L, F_U, F_VAR, F_L0, F_L1, F_U0, F_U1, F_PHASE, F_C0, F_C1, F_CR, F_R,
    F_WORDS = F_R + 16
};

/* Covers are records in the walk's log, REC_WORDS each: (g, var, c0, c1,
 * cr), whose cubes are those of c0 with ¬var, those of c1 with var, then
 * those of cr.  Cover 0 has no cube (g = FALSE), cover 1 the empty cube
 * (g = TRUE), and record i is cover i + 2. */
#define COVER_NONE 0
#define COVER_ONE 1
#define REC_WORDS 5

static inline int64_t cover_g(const bdd_walk *w, int64_t c) {
    return c <= COVER_ONE ? c : w->log[(c - 2) * REC_WORDS];
}

/* Hand the cover ``c`` of a finished call to its caller: the open frame
 * on top, whose phase is the call's (2, 5 or 12), or the walk itself
 * (acc = g, acc2 = the cover) for the first call. */
static void isop_return(bdd_walk *w, int64_t c) {
    if (w->stack_len == 0) {
        w->acc = cover_g(w, c);
        w->acc2 = c;
        return;
    }
    int64_t *f = w->stack + w->stack_len - F_WORDS;
    int64_t p = f[F_PHASE];
    f[F_R + p] = cover_g(w, c);
    f[p == 2 ? F_C0 : p == 5 ? F_C1 : F_CR] = c;
    f[F_PHASE] = p + 1;
}

/* The call isop(l, u): its terminal cases and the (l, u) memo return at
 * once; otherwise a frame is opened.  Returns 0 or BDD_NOMEM. */
static int64_t isop_call(const bdd_state *st, bdd_walk *w, int64_t l,
                         int64_t u) {
    if (l == BDD_FALSE || u == BDD_TRUE) {
        isop_return(w, l == BDD_FALSE ? COVER_NONE : COVER_ONE);
        return 0;
    }
    int64_t c = memo_get(w, (l << 31) | u);
    if (c >= 0) {
        isop_return(w, c);
        return 0;
    }
    int64_t *f = reserve(&w->stack, w->stack_len, &w->stack_cap, F_WORDS);
    if (!f) return BDD_NOMEM;
    w->stack_len += F_WORDS;
    const int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    int64_t var = level[l] < level[u] ? level[l] : level[u];
    f[F_L] = l;
    f[F_U] = u;
    f[F_VAR] = var;
    f[F_L0] = level[l] == var ? loa[l] : l;
    f[F_L1] = level[l] == var ? hia[l] : l;
    f[F_U0] = level[u] == var ? loa[u] : u;
    f[F_U1] = level[u] == var ? hia[u] : u;
    f[F_PHASE] = 0;
    return 0;
}

/* Run the open frames to the end.  Operation p of a frame stores its
 * result at F_R + p: ¬u1, l0 ∧ ¬u1, the call on [l0 ∧ ¬u1, u0] (g0),
 * ¬u0, l1 ∧ ¬u0, the call on [l1 ∧ ¬u0, u1] (g1), ¬g0, l0 ∧ ¬g0, ¬g1,
 * l1 ∧ ¬g1, their OR (l_rest), u0 ∧ u1, the call on [l_rest, u0 ∧ u1]
 * (g_rest), the literal of var, ite(var, g1, g0) and its OR with g_rest
 * (g).  Then the frame's cover is recorded, memoised under (l, u) and
 * returned.  A growth code leaves the phase as it was, so the restart
 * re-runs the operation that asked.  Returns 0 or a negative code. */
static int64_t isop_frames(const bdd_state *st, bdd_walk *w) {
    while (w->stack_len > 0) {
        int64_t *f = w->stack + w->stack_len - F_WORDS, *R = f + F_R;
        int64_t p = f[F_PHASE], r;
        switch (p) {
        case 0: r = negate_entry(st, f[F_U1]); break;
        case 1: r = apply_entry(st, T_AND, f[F_L0], R[0]); break;
        case 2: r = isop_call(st, w, R[1], f[F_U0]); if (r) return r; continue;
        case 3: r = negate_entry(st, f[F_U0]); break;
        case 4: r = apply_entry(st, T_AND, f[F_L1], R[3]); break;
        case 5: r = isop_call(st, w, R[4], f[F_U1]); if (r) return r; continue;
        case 6: r = negate_entry(st, R[2]); break;
        case 7: r = apply_entry(st, T_AND, f[F_L0], R[6]); break;
        case 8: r = negate_entry(st, R[5]); break;
        case 9: r = apply_entry(st, T_AND, f[F_L1], R[8]); break;
        case 10: r = apply_entry(st, T_OR, R[7], R[9]); break;
        case 11: r = apply_entry(st, T_AND, f[F_U0], f[F_U1]); break;
        case 12: r = isop_call(st, w, R[10], R[11]); if (r) return r; continue;
        case 13: r = mk(st, f[F_VAR], BDD_FALSE, BDD_TRUE); break;
        case 14: r = ite_entry(st, R[13], R[5], R[2]); break;
        case 15: r = apply_entry(st, T_OR, R[14], R[12]); break;
        default: {
            int64_t c = 2 + w->log_len / REC_WORDS;
            int64_t *rec = reserve(&w->log, w->log_len, &w->log_cap, REC_WORDS);
            if (!rec || !memo_put(w, (f[F_L] << 31) | f[F_U], c))
                return BDD_NOMEM;
            rec[0] = f[F_R + 15];
            rec[1] = f[F_VAR];
            rec[2] = f[F_C0];
            rec[3] = f[F_C1];
            rec[4] = f[F_CR];
            w->log_len += REC_WORDS;
            w->stack_len -= F_WORDS;
            isop_return(w, c);
            continue;
        }
        }
        if (r < 0) return r;
        R[p] = r;
        f[F_PHASE] = p + 1;
    }
    return 0;
}

/* op(a, b) — ¬a for T_NOT — through its public entry into *part, as
 * its result + 1, unless an earlier attempt finished it.  Returns 0 or a
 * negative code. */
static int64_t part_op(const bdd_state *st, int64_t *part, int64_t op,
                       int64_t a, int64_t b) {
    if (*part) return 0;
    int64_t r = op == T_NOT ? negate_entry(st, a) : apply_entry(st, op, a, b);
    if (r < 0) return r;
    *part = r + 1;
    return 0;
}

/* manager.leq(f, g) through part[0] and part[1]: ¬f, then ¬f ∨ g.
 * Returns 1 when it holds, 0 when not, or a negative code. */
static int64_t leq_step(const bdd_state *st, int64_t *part, int64_t f,
                        int64_t g) {
    int64_t r;
    if ((r = part_op(st, &part[0], T_NOT, f, 0)) ||
        (r = part_op(st, &part[1], T_OR, part[0] - 1, g)))
        return r;
    return part[1] - 1 == BDD_TRUE;
}

/* logic.sop.isop's walk: the leq check of [lower, upper], then the
 * call on it.  Returns 1 with g in acc and its cover in acc2, 0 when the
 * interval is inconsistent, or a negative code. */
static int64_t isop_walk(const bdd_state *st, bdd_walk *w, int64_t lower,
                         int64_t upper) {
    int64_t r;
    if (!w->started) {
        if ((r = leq_step(st, w->part, lower, upper)) <= 0) return r;
        if ((r = isop_call(st, w, lower, upper))) return r;
        w->started = 1;
    }
    r = isop_frames(st, w);
    return r ? r : 1;
}

/* The cubes of cover ``root`` into the walk's cubes, in the order
 * logic.sop.isop lists them, each cube's literals by ascending variable.
 * A depth-first walk of the records over the walk's stack, three words
 * an entry: the cover, the depth of its cubes' prefix, and the literal
 * the entry appends to it (or -1).  Returns 0 or BDD_NOMEM. */
static int64_t isop_cubes(bdd_walk *w, int64_t root) {
    int64_t *prefix = NULL, prefix_cap = 0, rc = 0;
    int64_t *e = reserve(&w->stack, 0, &w->stack_cap, 3);
    if (!e) return BDD_NOMEM;
    e[0] = root;
    e[1] = 0;
    e[2] = -1;
    w->stack_len = 3;
    w->cubes_len = 0;
    while (rc == 0 && w->stack_len > 0) {
        w->stack_len -= 3;
        e = w->stack + w->stack_len;
        int64_t c = e[0], depth = e[1], lit = e[2];
        if (lit >= 0) {
            if (!reserve(&prefix, depth, &prefix_cap, 1)) { rc = BDD_NOMEM; break; }
            prefix[depth++] = lit;
        }
        if (c == COVER_NONE) continue;
        if (c == COVER_ONE) {
            int64_t *cube = reserve(&w->cubes, w->cubes_len, &w->cubes_cap, depth + 1);
            if (!cube) { rc = BDD_NOMEM; break; }
            cube[0] = depth;
            if (depth) memcpy(cube + 1, prefix, (size_t)depth * sizeof(int64_t));
            w->cubes_len += depth + 1;
            continue;
        }
        const int64_t *rec = w->log + (c - 2) * REC_WORDS;
        e = reserve(&w->stack, w->stack_len, &w->stack_cap, 9);
        if (!e) { rc = BDD_NOMEM; break; }
        e[0] = rec[4]; e[1] = depth; e[2] = -1;
        e[3] = rec[3]; e[4] = depth; e[5] = 2 * rec[1] + 1;
        e[6] = rec[2]; e[7] = depth; e[8] = 2 * rec[1];
        w->stack_len += 9;
    }
    free(prefix);
    return rc;
}

/* logic.sop.isop on [lower, upper]: with ``cubes`` set, the cover's
 * cubes land in the walk's cubes too.  Returns 1 with g in acc, 0 when
 * the interval is inconsistent, or a negative code. */
int64_t bdd_isop(const bdd_state *st, bdd_walk *w, int64_t lower,
                 int64_t upper, int64_t cubes) {
    count_call(st);
    if (bad_node(st, lower) || bad_node(st, upper)) return BDD_BAD_NODE;
    int64_t r = isop_walk(st, w, lower, upper);
    if (r != 1 || !cubes) return r;
    r = isop_cubes(w, w->acc2);
    return r ? r : 1;
}

/* -- Step programs -------------------------------------------------------
 * The composite operations of the flow — the OR and XOR bodies of the
 * partition spaces, PartitionSpace.nontrivial and size_pairs, the
 * minimised OR/AND extraction and one fixpoint iteration of forward
 * reachability — are step programs: fixed chains of the operations
 * above, declared once in Python (repro.bdd.program) and run here by
 * bdd_run, one call per run plus the growth restarts.  A public
 * function whose body is one op — the parameterized quantifications and
 * replacements, vector_compose, transfer_multi, the weight table and
 * K(c, e) — runs as a one-step program.  The Python interpreter there
 * runs the same steps through the public functions, which land in the
 * same static bodies below, so both make the same nodes with the same
 * cache traffic.
 *
 * A step is STEP_WORDS words: the op, the destination register and up
 * to five operands.  An operand is a register of ``regs`` (a node of
 * ``st``, a transfer's root in ``src``, or a plain integer such as a
 * node budget), an immediate count, or a view: view i of ``vecs``
 * starts at vecs + vecs[i], and its first word is its length n:
 *
 *   VARS   n, then the n values;
 *   CUBE   n, the cube id, the deepest level, then the n sorted levels
 *          of one interned cube;
 *   CUBES  n, the n variables, then the ids of their interned
 *          one-variable cubes.
 *
 * The walk's ``stage`` is the program counter.  A step that asks for
 * growth returns the code and keeps its progress in the walk, so the
 * restart re-enters at that step and resumes as its walk or loop would
 * on its own; a finished step writes its registers, and the walk is
 * cleared before the next step starts. */

#define STEP_WORDS 7 /* keep in sync with repro.bdd.program */
#define BDD_BAD_OP (-64)        /* an op code the interpreter does not know */
#define BDD_INCONSISTENT (-65)  /* isop on an interval with lower > upper */

/* Op codes — keep in sync with repro.bdd.program._OPS. */
enum {
    OP_NOT, OP_AND, OP_OR, OP_XOR, OP_EXISTS, OP_FORALL, OP_AND_EXISTS,
    OP_PARAM_FORALL, OP_REPLACE, OP_REPLACE_PAIR, OP_TRANSFER, OP_WEIGHTS,
    OP_KREL, OP_CONJOIN, OP_DISJOIN, OP_RENAME, OP_ISOP, OP_LEQ, OP_FORCE,
    OP_PAIRS, OP_PARAM_EXISTS, N_OPS
};

/* Per op, the operands (bit k: operand k) that are nodes of ``st`` and
 * that no body below checks: the public function checks them first. */
static const unsigned char CHECKED[N_OPS] = {
    [OP_NOT] = 1, [OP_AND] = 3, [OP_OR] = 3, [OP_XOR] = 3,
    [OP_EXISTS] = 1, [OP_FORALL] = 1, [OP_AND_EXISTS] = 3,
    [OP_REPLACE] = 1, [OP_REPLACE_PAIR] = 1, [OP_ISOP] = 3, [OP_LEQ] = 3,
    [OP_FORCE] = 1, [OP_PAIRS] = 1,
};

/* quantify.and_exists on an interned cube that is not empty: the
 * quantify caches' allocation where and_exists makes it, as the growth
 * code of its table while they are unallocated; then the op-cache check
 * and the core. */
static int64_t and_exists_entry(const bdd_state *st, int64_t f, int64_t g,
                                int64_t cid, const int64_t *cube,
                                int64_t cube_len, int64_t max_level) {
    if (st->ctrl[C_MASK + T_EX] == 0) return BDD_GROW_TABLE(T_AE);
    int64_t rc = check_opcaches(st);
    return rc ? rc
              : and_exists_core(st, f, g, cid, cube, cube_len, max_level);
}

/* The models of ``root`` over the ascending counter bits — e1, the
 * ``nbits`` bits of k1, then e2 — in count.iter_models order, each
 * decoded as builders.decode_int reads it into the pair (k1, k2) at
 * pairs[2i], pairs[2i + 1].  Returns the pair count, or BDD_NOMEM past
 * ``cap`` pairs or when the path cannot be allocated. */
static int64_t decode_pairs(const bdd_state *st, int64_t root,
                            const int64_t *bits, int64_t nbits,
                            int64_t *pairs, int64_t cap) {
    int64_t m = 2 * nbits, count = 0, rc = 0;
    int64_t *path = calloc((size_t)(2 * m + 3), sizeof(int64_t));
    char *model = malloc((size_t)(m > 0 ? m : 1));
    if (!path || !model) rc = BDD_NOMEM;
    while (rc == 0 && models(st, root, bits, m, path, model, 1) == 1) {
        if (count == cap) {
            rc = BDD_NOMEM;
            break;
        }
        /* model[j] is the value of bits[m - 1 - j]. */
        int64_t k1 = 0, k2 = 0;
        for (int64_t d = 0; d < nbits; d++) {
            k1 |= (int64_t)model[m - 1 - d] << d;
            k2 |= (int64_t)model[nbits - 1 - d] << d;
        }
        pairs[2 * count] = k1;
        pairs[2 * count + 1] = k2;
        count++;
    }
    free(path);
    free(model);
    return rc ? rc : count;
}

/* Step ``s`` of a program; it writes its results into ``regs``.
 * Returns 0, 1 when a check failed, or a negative code. */
static int64_t run_step(const bdd_state *src, const bdd_state *st,
                        bdd_walk *w, const int64_t *s, int64_t *regs,
                        const int64_t *vecs, int64_t nvars) {
    int64_t op = s[0], dst = s[1], a = s[2], b = s[3], c = s[4];
    const int64_t *v, *x, *y;
    int64_t r;
    switch (op) {
    case OP_NOT: r = negate_entry(st, regs[a]); break;
    case OP_AND:
    case OP_OR:
    case OP_XOR: r = apply_entry(st, T_AND + op - OP_AND, regs[a], regs[b]); break;
    case OP_EXISTS:
    case OP_FORALL: /* f, CUBE */
        v = vecs + vecs[b];
        r = quantify_entry(st, op == OP_EXISTS ? T_EX : T_FA, regs[a], v[1],
                           v + 3, v[0], v[2]);
        break;
    case OP_AND_EXISTS: /* f, g, CUBE; an empty cube is a plain AND */
        v = vecs + vecs[c];
        r = v[0] ? and_exists_entry(st, regs[a], regs[b], v[1], v + 3, v[0], v[2])
                 : apply_entry(st, T_AND, regs[a], regs[b]);
        break;
    case OP_PARAM_FORALL:
    case OP_PARAM_EXISTS: /* f, CUBES of x, VARS c, budget register */
        x = vecs + vecs[b];
        v = vecs + vecs[c];
        r = param_quantify(st, w, op == OP_PARAM_FORALL, regs[a], x + 1,
                           x + 1 + x[0], v + 1, x[0], regs[s[5]]);
        if (r < 0) return r;
        regs[dst] = r;
        regs[dst + 1] = w->step; /* the first decision variable skipped */
        regs[dst + 2] = st->ctrl[C_NNODES];
        return 0;
    case OP_REPLACE:
    case OP_REPLACE_PAIR: /* f, VARS x, y, c (, c2) */
        x = vecs + vecs[b];
        y = vecs + vecs[c];
        v = vecs + vecs[s[5]];
        r = x[0] ? param_replace(st, w, regs[a], x + 1, y + 1, v + 1,
                                 op == OP_REPLACE ? NULL : vecs + vecs[s[6]] + 1,
                                 x[0], nvars)
                 : regs[a];
        break;
    case OP_TRANSFER: /* roots a..a + b - 1 of src; VARS source, target */
        x = vecs + vecs[c];
        y = vecs + vecs[s[5]];
        if (!w->started) {
            int64_t len = 0;
            for (int64_t i = 1; i <= x[0]; i++)
                if (x[i] >= len) len = x[i] + 1;
            if (table_init(w, len)) return BDD_NOMEM;
            for (int64_t i = 1; i <= x[0]; i++)
                if (x[i] >= 0) w->table[x[i]] = y[i];
            w->started = 1;
        }
        r = transfer_walk(src, st, w, regs + a, b, nvars);
        if (r) return r;
        memmove(regs + dst, regs + a, (size_t)b * sizeof(int64_t));
        for (int64_t i = dst; i < dst + b; i++)
            if (regs[i] > 1) regs[i] = memo_get(w, regs[i]);
        return 0;
    case OP_WEIGHTS: /* VARS ascending, n: n + 1 registers */
        v = vecs + vecs[a];
        return weight_functions(st, v + 1, v[0], b, regs + dst);
    case OP_KREL: /* the weights' registers a..a + b - 1, VARS bits */
        v = vecs + vecs[c];
        r = count_relation(st, w, regs + a, b, v + 1, v[0]);
        break;
    case OP_CONJOIN:
    case OP_DISJOIN: /* registers a..a + b - 1 */
        r = fold(st, w, op == OP_CONJOIN ? T_AND : T_OR, regs + a, b);
        break;
    case OP_RENAME: /* f, VARS levels, VARS their substitute nodes */
        x = vecs + vecs[b];
        y = vecs + vecs[c];
        if (x[0] == 0) {
            r = regs[a];
            break;
        }
        if (!w->started) {
            if (table_init(w, nvars)) return BDD_NOMEM;
            for (int64_t i = 1; i <= x[0]; i++) {
                if (bad_node(st, y[i])) return BDD_BAD_NODE;
                if (x[i] >= 0 && x[i] < nvars) w->table[x[i]] = y[i];
            }
            w->started = 1;
        }
        r = vector_compose(st, w, regs[a]);
        break;
    case OP_ISOP:
        r = isop_walk(st, w, regs[a], regs[b]);
        if (r <= 0) return r ? r : BDD_INCONSISTENT;
        r = w->acc;
        break;
    case OP_LEQ:
        r = leq_step(st, w->part, regs[a], regs[b]);
        return r < 0 ? r : !r;
    case OP_FORCE: /* f, VARS c, the register of the first c to force */
        v = vecs + vecs[b];
        if (!w->started) {
            w->acc = regs[a];
            w->step = regs[c];
            w->started = 1;
        }
        for (; w->step < v[0]; w->step++) {
            int64_t lit = mk(st, v[1 + w->step], BDD_FALSE, BDD_TRUE);
            if (lit < 0) return lit;
            r = apply_entry(st, T_AND, w->acc, lit);
            if (r < 0) return r;
            w->acc = r;
        }
        r = w->acc;
        break;
    case OP_PAIRS: /* Bi_κ, VARS e1 then e2; the count, then c pairs */
        v = vecs + vecs[b];
        r = decode_pairs(st, regs[a], v + 1, v[0] / 2, regs + dst + 1, c);
        if (r < 0) return r;
        regs[dst] = r;
        return 0;
    default:
        return BDD_BAD_OP;
    }
    if (r < 0) return r;
    regs[dst] = r;
    return 0;
}

/* Run the ``nsteps`` steps of ``prog`` from the walk's stage over the
 * register file ``regs`` and the views ``vecs``; ``nvars`` is the number
 * of variables ``st`` declares, and ``src`` the source manager of a
 * transfer.  Returns 1 when the program ran to its end, 0 when a check
 * failed, or a negative code. */
int64_t bdd_run(const bdd_state *src, const bdd_state *st, bdd_walk *w,
                const int64_t *prog, int64_t nsteps, int64_t *regs,
                const int64_t *vecs, int64_t nvars) {
    count_call(st);
    while (w->stage < nsteps) {
        const int64_t *s = prog + STEP_WORDS * w->stage;
        if ((uint64_t)s[0] >= N_OPS) return BDD_BAD_OP;
        for (int k = 0; k < 5; k++)
            if (((CHECKED[s[0]] >> k) & 1) && bad_node(st, regs[s[2 + k]]))
                return BDD_BAD_NODE;
        int64_t r = run_step(src, st, w, s, regs, vecs, nvars);
        if (r) return r < 0 ? r : 0;
        int64_t stage = w->stage + 1;
        bdd_walk_clear(w);
        w->stage = stage;
    }
    return 1;
}
