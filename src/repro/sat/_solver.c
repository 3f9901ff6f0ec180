/* Native CDCL core for repro.sat.solver.Solver.
 *
 * Compiled together with the BDD kernel into one shared object by
 * ``repro.bdd.native`` and loaded through cffi's ABI mode.  Unlike the
 * BDD kernel, which works on buffers the Python manager owns, this core
 * owns its state: a solve appends learnt clauses mid-search and cannot
 * be restarted the way a BDD operation is, so every array below is
 * allocated here and released by ``sat_free`` (the Python wrapper
 * attaches it through ``ffi.gc``).
 *
 * The search mirrors the pure-Python core in ``repro.sat.solver`` step
 * by step, so both make the same decisions, learn the same clauses,
 * restart at the same conflicts and return the same models:
 *
 *   - clauses keep the Python core's literal order, including the
 *     in-place swaps of the two watched literals;
 *   - each literal's watch list keeps its order, and a conflict keeps
 *     the unvisited tail after the visited survivors;
 *   - first-UIP analysis appends the lower-level literals in the order
 *     it meets them, behind the asserting literal;
 *   - activities are doubles bumped by ``var_inc``, rescaled by 1e-100
 *     above 1e100, with ``var_inc /= 0.95`` after every conflict (no
 *     expression here multiplies and adds, so no compiler may fuse one
 *     into an FMA and round differently);
 *   - decisions scan variables 1..num_vars and take the first one of
 *     highest activity, in its saved phase (False until assigned);
 *   - restarts follow the Luby sequence times 64, and assumptions are
 *     pseudo-decisions, one level each.
 *
 * Literals are non-zero ints in DIMACS convention.  A literal ``l`` has
 * watch index ``2*|l| + (l < 0)``; a clause watching ``l`` sits on the
 * list of ``-l``, which propagation visits when ``-l`` becomes true.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SAT_NOMEM (-1)

typedef struct {
    int32_t *data;
    int32_t len, cap;
} ivec;

typedef struct sat_solver {
    int32_t num_vars;  /* variables 1..num_vars are decided and modelled */
    int32_t cap;       /* per-variable arrays hold cap + 1 entries */
    int ok;            /* 0 once the formula is unsatisfiable for good */
    int nomem;         /* an allocation failed: the solver is unusable */
    /* Clause database: clause i is lits[start[i] .. start[i]+size[i]). */
    int32_t *lits;
    int64_t nlits, lits_cap;
    int64_t *start;
    int32_t *size;
    int32_t nclauses, clauses_cap;
    ivec *watches;     /* 2 * (cap + 1) lists of clause indices */
    int8_t *value;     /* per variable: 1 true, -1 false, 0 unassigned */
    int32_t *level;
    int32_t *reason;   /* clause index, -1 for a decision or a unit */
    double *activity;
    uint8_t *phase;    /* saved phase, 1 = true */
    uint8_t *seen;     /* conflict-analysis marks */
    int32_t *trail;
    int32_t trail_len;
    ivec trail_lim;
    int32_t qhead;
    double var_inc;
    ivec learnt;       /* conflict-analysis scratch */
    ivec scratch;      /* add_clause scratch */
} sat_solver;

#define LIDX(lit) ((lit) > 0 ? 2 * (lit) : -2 * (lit) + 1)
#define VAR(lit) ((lit) > 0 ? (lit) : -(lit))

static inline int lit_value(const sat_solver *s, int32_t lit) {
    int v = s->value[VAR(lit)];
    return lit > 0 ? v : -v;
}

static int ivec_push(ivec *v, int32_t x) {
    if (v->len == v->cap) {
        int32_t ncap = v->cap ? 2 * v->cap : 4;
        int32_t *nd = realloc(v->data, sizeof(int32_t) * (size_t)ncap);
        if (!nd) return 0;
        v->data = nd;
        v->cap = ncap;
    }
    v->data[v->len++] = x;
    return 1;
}

static void *grow(void *p, size_t elem, int64_t old_n, int64_t new_n) {
    char *np = realloc(p, elem * (size_t)new_n);
    if (np) memset(np + elem * (size_t)old_n, 0, elem * (size_t)(new_n - old_n));
    return np;
}

/* Make room for variables up to ``n`` (zeroed: unassigned, level 0,
 * activity 0.0, phase false).  Returns 0 on allocation failure. */
static int ensure_vars(sat_solver *s, int64_t n) {
    if (n <= s->cap) return 1;
    int64_t ncap = s->cap ? s->cap : 16;
    while (ncap < n) ncap *= 2;
    if (ncap > INT32_MAX / 2 - 1) return 0;
    int64_t old = s->value ? s->cap + 1 : 0, new_n = ncap + 1;
    void *p;
#define GROW(field)                                                   \
    if (!(p = grow(s->field, sizeof(*s->field), old, new_n))) return 0; \
    s->field = p;
    GROW(value) GROW(level) GROW(reason) GROW(activity) GROW(phase)
    GROW(seen) GROW(trail)
#undef GROW
    if (!(p = grow(s->watches, sizeof(ivec), 2 * old, 2 * new_n))) return 0;
    s->watches = p;
    for (int64_t v = old; v < new_n; v++) s->reason[v] = -1;
    s->cap = (int32_t)ncap;
    return 1;
}

static int fail(sat_solver *s) {
    s->nomem = 1;
    s->ok = 0;
    return SAT_NOMEM;
}

/* Append a clause (literals already in their final order) and watch its
 * first two literals.  Returns its index, or -1 on allocation failure. */
static int32_t store_clause(sat_solver *s, const int32_t *c, int32_t n) {
    if (s->nclauses == s->clauses_cap) {
        int32_t ncap = s->clauses_cap ? 2 * s->clauses_cap : 64;
        int64_t *ns = realloc(s->start, sizeof(int64_t) * (size_t)ncap);
        if (!ns) return -1;
        s->start = ns;
        int32_t *nz = realloc(s->size, sizeof(int32_t) * (size_t)ncap);
        if (!nz) return -1;
        s->size = nz;
        s->clauses_cap = ncap;
    }
    if (s->nlits + n > s->lits_cap) {
        int64_t ncap = s->lits_cap ? 2 * s->lits_cap : 256;
        while (ncap < s->nlits + n) ncap *= 2;
        int32_t *nl = realloc(s->lits, sizeof(int32_t) * (size_t)ncap);
        if (!nl) return -1;
        s->lits = nl;
        s->lits_cap = ncap;
    }
    int32_t index = s->nclauses++;
    s->start[index] = s->nlits;
    s->size[index] = n;
    memcpy(s->lits + s->nlits, c, sizeof(int32_t) * (size_t)n);
    s->nlits += n;
    if (!ivec_push(&s->watches[LIDX(-c[0])], index) ||
        !ivec_push(&s->watches[LIDX(-c[1])], index))
        return -1;
    return index;
}

/* Assign ``lit`` at the current level; returns its value if it already
 * has one (1 true, 0 false), else 1. */
static inline int enqueue(sat_solver *s, int32_t lit, int32_t reason) {
    int value = lit_value(s, lit);
    if (value) return value > 0;
    int32_t var = VAR(lit);
    s->value[var] = lit > 0 ? 1 : -1;
    s->level[var] = s->trail_lim.len;
    s->reason[var] = reason;
    s->trail[s->trail_len++] = lit;
    return 1;
}

/* Unit propagation from qhead; returns a conflicting clause index, -1
 * for none, or SAT_NOMEM - 1 on allocation failure. */
static int32_t propagate(sat_solver *s) {
    int32_t index = s->qhead;
    while (index < s->trail_len) {
        int32_t lit = s->trail[index++];
        ivec *ws = &s->watches[LIDX(lit)];
        int32_t *w = ws->data;
        int32_t n = ws->len, i = 0, j = 0;
        while (i < n) {
            int32_t ci = w[i++];
            int32_t *c = s->lits + s->start[ci];
            int32_t size = s->size[ci];
            /* Ensure the false literal is at slot 1. */
            if (c[0] == -lit) {
                c[0] = c[1];
                c[1] = -lit;
            }
            if (lit_value(s, c[0]) > 0) {
                w[j++] = ci;
                continue;
            }
            int32_t k = 2;
            while (k < size && lit_value(s, c[k]) < 0) k++;
            if (k < size) {
                int32_t moved = c[k];
                c[k] = c[1];
                c[1] = moved;
                /* Never this list: c[1] is not false, -lit is. */
                if (!ivec_push(&s->watches[LIDX(-moved)], ci)) {
                    fail(s);
                    return SAT_NOMEM - 1;
                }
                continue;
            }
            w[j++] = ci;
            if (!enqueue(s, c[0], ci)) {
                while (i < n) w[j++] = w[i++];
                ws->len = j;
                s->qhead = s->trail_len;
                return ci;
            }
        }
        ws->len = j;
    }
    s->qhead = index;
    return -1;
}

static void bump(sat_solver *s, int32_t var) {
    s->activity[var] += s->var_inc;
    if (s->activity[var] > 1e100) {
        for (int32_t v = 0; v <= s->cap; v++) s->activity[v] *= 1e-100;
        s->var_inc *= 1e-100;
    }
}

/* First-UIP analysis of ``conflict`` into s->learnt (asserting literal
 * first); returns the backtrack level, or SAT_NOMEM. */
static int32_t analyze(sat_solver *s, int32_t conflict) {
    ivec *learnt = &s->learnt;
    learnt->len = 0;
    if (!ivec_push(learnt, 0)) return fail(s);
    int32_t counter = 0, lit = 0, ci = conflict;
    int32_t trail_index = s->trail_len - 1;
    int32_t current_level = s->trail_lim.len;
    for (;;) {
        const int32_t *c = s->lits + s->start[ci];
        int32_t size = s->size[ci];
        for (int32_t k = 0; k < size; k++) {
            int32_t reason_lit = c[k];
            int32_t var = VAR(reason_lit);
            /* Skip the literal asserted by this clause (any polarity). */
            if (lit != 0 && var == VAR(lit)) continue;
            if (s->seen[var] || s->level[var] == 0) continue;
            s->seen[var] = 1;
            bump(s, var);
            if (s->level[var] == current_level)
                counter++;
            else if (!ivec_push(learnt, reason_lit))
                return fail(s);
        }
        while (!s->seen[VAR(s->trail[trail_index])]) trail_index--;
        lit = -s->trail[trail_index];
        int32_t var = VAR(lit);
        s->seen[var] = 0;
        counter--;
        trail_index--;
        if (counter == 0) break;
        ci = s->reason[var];
    }
    learnt->data[0] = lit;
    int32_t backtrack = 0;
    for (int32_t k = 1; k < learnt->len; k++) {
        int32_t var = VAR(learnt->data[k]);
        s->seen[var] = 0;
        if (s->level[var] > backtrack) backtrack = s->level[var];
    }
    return backtrack;
}

static void cancel_until(sat_solver *s, int32_t level) {
    while (s->trail_lim.len > level) {
        int32_t limit = s->trail_lim.data[--s->trail_lim.len];
        while (s->trail_len > limit) {
            int32_t lit = s->trail[--s->trail_len];
            int32_t var = VAR(lit);
            s->phase[var] = lit > 0;
            s->value[var] = 0;
        }
    }
    if (s->qhead > s->trail_len) s->qhead = s->trail_len;
}

static int32_t decide(const sat_solver *s) {
    int32_t best_var = 0;
    double best_activity = -1.0;
    for (int32_t var = 1; var <= s->num_vars; var++) {
        if (!s->value[var] && s->activity[var] > best_activity) {
            best_activity = s->activity[var];
            best_var = var;
        }
    }
    if (!best_var) return 0;
    return s->phase[best_var] ? best_var : -best_var;
}

/* The Luby restart sequence 1,1,2,1,1,2,4,... (MiniSat's recurrence). */
static int64_t luby(int64_t index) {
    int64_t size = 1, sequence = 0;
    while (size < index + 1) {
        sequence++;
        size = 2 * size + 1;
    }
    while (size - 1 != index) {
        size = (size - 1) / 2;
        sequence--;
        index %= size;
    }
    return (int64_t)1 << sequence;
}

static int cmp_abs(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    int32_t ax = VAR(x), ay = VAR(y);
    if (ax != ay) return ax < ay ? -1 : 1;
    return (x > y) - (x < y);
}

static int add_clause(sat_solver *s, const int32_t *lits, int32_t n) {
    ivec *clause = &s->scratch;
    clause->len = 0;
    for (int32_t k = 0; k < n; k++)
        if (!ivec_push(clause, lits[k])) return fail(s);
    int32_t *c = clause->data;
    if (n > 1) qsort(c, (size_t)n, sizeof(int32_t), cmp_abs);
    int32_t m = 0;
    for (int32_t k = 0; k < n; k++) {
        if (m && c[k] == c[m - 1]) continue; /* duplicate */
        if (c[k] == 0 || (m && c[k] == -c[m - 1])) return 1; /* tautology */
        c[m++] = c[k];
    }
    if (m && VAR(c[m - 1]) > s->num_vars) {
        if (!ensure_vars(s, VAR(c[m - 1]))) return fail(s);
        s->num_vars = VAR(c[m - 1]);
    }
    if (!s->ok) return 0;
    /* Simplify against level 0, so undo whatever a satisfiable solve()
     * left on the trail first. */
    cancel_until(s, 0);
    int32_t kept = 0;
    for (int32_t k = 0; k < m; k++) {
        int value = lit_value(s, c[k]);
        if (value > 0) return 1;
        if (value == 0) c[kept++] = c[k];
    }
    if (kept == 0) {
        s->ok = 0;
        return 0;
    }
    if (kept == 1) {
        if (!enqueue(s, c[0], -1) || propagate(s) != -1) {
            if (s->nomem) return SAT_NOMEM;
            s->ok = 0;
            return 0;
        }
        return 1;
    }
    if (store_clause(s, c, kept) < 0) return fail(s);
    return 1;
}

/* -- entry points (declared in repro.bdd.native._CDEF) ------------------ */

sat_solver *sat_new(void) {
    sat_solver *s = calloc(1, sizeof(sat_solver));
    if (!s) return NULL;
    s->ok = 1;
    s->var_inc = 1.0;
    if (!ensure_vars(s, 16)) {
        free(s);
        return NULL;
    }
    return s;
}

void sat_free(sat_solver *s) {
    if (!s) return;
    if (s->watches)
        for (int64_t i = 0; i < 2 * ((int64_t)s->cap + 1); i++)
            free(s->watches[i].data);
    free(s->watches);
    free(s->lits);
    free(s->start);
    free(s->size);
    free(s->value);
    free(s->level);
    free(s->reason);
    free(s->activity);
    free(s->phase);
    free(s->seen);
    free(s->trail);
    free(s->trail_lim.data);
    free(s->learnt.data);
    free(s->scratch.data);
    free(s);
}

int32_t sat_num_vars(const sat_solver *s) { return s->num_vars; }

int sat_set_num_vars(sat_solver *s, int32_t n) {
    if (!ensure_vars(s, n)) return fail(s);
    s->num_vars = n;
    return 1;
}

/* add_clause: 1 added (or satisfied), 0 unsatisfiable, SAT_NOMEM. */
int sat_add_clause(sat_solver *s, const int32_t *lits, int32_t n) {
    if (s->nomem) return SAT_NOMEM;
    return add_clause(s, lits, n);
}

/* Add ``count`` clauses, clause i being the next sizes[i] literals of
 * ``lits``, one add_clause each; 0 if any of them returned 0. */
int sat_add_clauses(sat_solver *s, const int32_t *lits, const int32_t *sizes,
                    int32_t count) {
    if (s->nomem) return SAT_NOMEM;
    int all = 1;
    for (int32_t i = 0; i < count; i++) {
        int r = add_clause(s, lits, sizes[i]);
        if (r < 0) return r;
        all &= r;
        lits += sizes[i];
    }
    return all;
}

/* solve: 1 satisfiable (the trail holds the model), 0 unsatisfiable
 * under the assumptions, SAT_NOMEM. */
int sat_solve(sat_solver *s, const int32_t *assumptions, int32_t count) {
    if (s->nomem) return SAT_NOMEM;
    if (!s->ok) return 0;
    for (int32_t k = 0; k < count; k++)
        if (!ensure_vars(s, VAR(assumptions[k]))) return fail(s);
    cancel_until(s, 0);
    int32_t conflict = propagate(s);
    if (conflict != -1) {
        if (s->nomem) return SAT_NOMEM;
        s->ok = 0;
        return 0;
    }
    int64_t restarts = 0;
    int64_t conflicts_left = luby(restarts) * 64;
    for (;;) {
        conflict = propagate(s);
        if (s->nomem) return SAT_NOMEM;
        if (conflict >= 0) {
            if (s->trail_lim.len == 0) {
                cancel_until(s, 0);
                s->ok = 0;
                return 0;
            }
            int32_t backtrack = analyze(s, conflict);
            if (backtrack < 0) return SAT_NOMEM;
            cancel_until(s, backtrack);
            const int32_t *learnt = s->learnt.data;
            if (s->learnt.len == 1) {
                if (!enqueue(s, learnt[0], -1)) {
                    s->ok = 0;
                    return 0;
                }
            } else {
                int32_t index = store_clause(s, learnt, s->learnt.len);
                if (index < 0) return fail(s);
                enqueue(s, learnt[0], index);
            }
            s->var_inc /= 0.95;
            conflicts_left--;
            if (conflicts_left <= 0 && s->trail_lim.len > count) {
                restarts++;
                conflicts_left = luby(restarts) * 64;
                cancel_until(s, count);
            }
            continue;
        }
        /* Apply pending assumptions as pseudo-decisions. */
        int32_t depth = s->trail_lim.len;
        if (depth < count) {
            int32_t lit = assumptions[depth];
            int value = lit_value(s, lit);
            if (value < 0) {
                cancel_until(s, 0);
                return 0;
            }
            if (!ivec_push(&s->trail_lim, s->trail_len)) return fail(s);
            if (value == 0) enqueue(s, lit, -1);
            continue;
        }
        int32_t decision = decide(s);
        if (!decision) return 1;
        if (!ivec_push(&s->trail_lim, s->trail_len)) return fail(s);
        enqueue(s, decision, -1);
    }
}

/* The model after a satisfiable solve: out[v-1] for v = 1..num_vars
 * (unassigned variables read false). */
void sat_model(const sat_solver *s, _Bool *out) {
    for (int32_t v = 1; v <= s->num_vars; v++) out[v - 1] = s->value[v] > 0;
}

int32_t sat_num_clauses(const sat_solver *s) { return s->nclauses; }

/* Clause ``i`` of the database (originals, then learnt, in order). */
const int32_t *sat_clause(const sat_solver *s, int32_t i, int32_t *size) {
    *size = s->size[i];
    return s->lits + s->start[i];
}
