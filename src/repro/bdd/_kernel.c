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
 * caches, so the restart is near-free.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BDD_FALSE 0
#define BDD_TRUE 1

#define BDD_GROW_NODES (-1)
#define BDD_GROW_UNIQUE (-2)
#define BDD_NOMEM (-3)
/* -(6+i): cache table i must grow.  An op cache (i < N_OPCACHES) doubles
 * and drops its entries; a quantify cache doubles by a lossless rehash
 * (bdd_rehash_quantify). */
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
    S_INSERTS, S_CLEARS, S_EVICTED,
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

/* Binary connective with the public-entry short-circuits applied, for
 * use *inside* other kernels (mirrors manager.apply_and/apply_or). */
static int64_t apply_full(const bdd_state *st, int64_t op, int64_t a,
                          int64_t b) {
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
    if (a > b) { int64_t t = a; a = b; b = t; }
    return apply_core(st, op, a, b);
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
 * Each applies the entry-time op-cache policy, then runs its core.  The
 * cores call each other directly, without the policy check, as the
 * Python cores do. */

int64_t bdd_negate(const bdd_state *st, int64_t f) {
    int64_t rc = check_opcaches(st);
    return rc ? rc : negate_core(st, f);
}

int64_t bdd_apply(const bdd_state *st, int64_t op, int64_t f, int64_t g) {
    int64_t rc = check_opcaches(st);
    return rc ? rc : apply_core(st, op, f, g);
}

int64_t bdd_ite(const bdd_state *st, int64_t f, int64_t g, int64_t h) {
    int64_t rc = check_opcaches(st);
    return rc ? rc : ite_core(st, f, g, h);
}

/* Exists (op 0) / forall (op 1) over the sorted levels ``cube``; the
 * caller has allocated the quantify caches. */
int64_t bdd_quantify(const bdd_state *st, int64_t op, int64_t f,
                     int64_t cid, const int64_t *cube, int64_t cube_len,
                     int64_t max_level) {
    int64_t rc = check_opcaches(st);
    return rc ? rc
              : quantify_core(st, op == 0 ? T_EX : T_FA, f, cid, cube,
                              cube_len, max_level);
}

int64_t bdd_and_exists(const bdd_state *st, int64_t f, int64_t g,
                       int64_t cid, const int64_t *cube, int64_t cube_len,
                       int64_t max_level) {
    int64_t rc = check_opcaches(st);
    return rc ? rc
              : and_exists_core(st, f, g, cid, cube, cube_len, max_level);
}

/* Re-seat every live node into the freshly zeroed unique-slot array
 * ``slots`` after Python doubles it (all internal nodes are always
 * live — there is no garbage collection).  Python installs ``slots``
 * and its mask afterwards. */
void bdd_rehash_unique(const bdd_state *st, int64_t *slots,
                       int64_t new_mask) {
    const int64_t *level = st->level, *loa = st->lo, *hia = st->hi;
    uint64_t mask = (uint64_t)new_mask;
    int64_t n = st->ctrl[C_NNODES];
    for (int64_t node = 2; node < n; node++) {
        uint64_t slot = ((uint64_t)level[node] * M1 +
                         (uint64_t)loa[node] * M2 +
                         (uint64_t)hia[node] * M3) & mask;
        while (slots[slot] != 0)
            slot = (slot + 1) & mask;
        slots[slot] = node;
    }
}

/* Re-seat every entry of quantify cache ``q`` (T_EX, T_FA or T_AE) into
 * the freshly zeroed arrays ``k``/``k2``/``v`` of mask ``new_mask``,
 * visiting old slots in index order exactly as the Python rehash loops
 * do, so both kernels leave the same layout.  ``k2`` is used by the
 * two-word-key and_exists cache only.  Python installs the arrays and
 * the mask afterwards; occupancy is unchanged (the rehash is lossless). */
void bdd_rehash_quantify(const bdd_state *st, int64_t q, int64_t *k,
                         int64_t *k2, int64_t *v, int64_t new_mask) {
    uint64_t mask = (uint64_t)new_mask;
    int64_t old_cap = st->ctrl[C_MASK + q] + 1;
    if (q == T_AE) {
        const int64_t *ok1 = st->ae_k1, *ok2 = st->ae_k2, *ov = st->ae_v;
        for (int64_t i = 0; i < old_cap; i++) {
            int64_t key = ok1[i];
            if (key == 0) continue;
            uint64_t slot = ((uint64_t)(key >> 31) * M1 +
                             (uint64_t)(key & 0x7FFFFFFF) * M2 +
                             (uint64_t)ok2[i] * M3) & mask;
            while (k[slot] != 0)
                slot = (slot + 1) & mask;
            k[slot] = key;
            k2[slot] = ok2[i];
            v[slot] = ov[i];
        }
        return;
    }
    const int64_t *ok = (q == T_EX) ? st->ex_k : st->fa_k;
    const int64_t *ov = (q == T_EX) ? st->ex_v : st->fa_v;
    for (int64_t i = 0; i < old_cap; i++) {
        int64_t key = ok[i];
        if (key == 0) continue;
        uint64_t slot = ((uint64_t)(key >> 31) * M1 +
                         (uint64_t)(key & 0x7FFFFFFF) * M2) & mask;
        while (k[slot] != 0)
            slot = (slot + 1) & mask;
        k[slot] = key;
        v[slot] = ov[i];
    }
}
