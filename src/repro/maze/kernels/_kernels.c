/* Compiled search kernels: A* and Lee inner loops.
 *
 * Built at first use by repro.maze.kernels.compiled with the system C
 * compiler and loaded through ctypes.  Both kernels are line-for-line
 * mirrors of the pure-python reference in repro/maze/kernels/pure.py —
 * same move order, same stale-entry skip, same strict-improvement
 * pushes — so paths, costs, and expansion counts are bit-identical by
 * construction (and enforced by the parity suite).
 *
 * Heap keys are the same packed (f, g, index) integers the python kernel
 * uses, but f << 52 overflows int64, so keys are unsigned __int128.  Key
 * uniqueness (a node is pushed only on strict g improvement, and index
 * occupies the low bits) means any correct min-heap pops the identical
 * sequence the python heapq does.
 */

#include <stdint.h>
#include <stdlib.h>

#define CELL_FREE 0
#define CELL_OBSTACLE (-1)

#define G_SHIFT 24
#define F_SHIFT 52
#define INDEX_MASK ((int64_t)((1 << 24) - 1))
#define FIELD_MASK ((int64_t)((1 << 28) - 1))
#define G_LIMIT ((int64_t)1 << 28)

/* Status codes shared with compiled.py. */
#define ST_FOUND 0
#define ST_NOPATH 1
#define ST_OVERFLOW 2
#define ST_NOMEM 3

typedef unsigned __int128 hkey_t;

typedef struct {
    hkey_t *a;
    int64_t n;
    int64_t cap;
} heap_t;

static int heap_push(heap_t *h, hkey_t v)
{
    if (h->n == h->cap) {
        int64_t cap = h->cap ? h->cap * 2 : 256;
        hkey_t *a = (hkey_t *)realloc(h->a, (size_t)cap * sizeof(hkey_t));
        if (!a)
            return 0;
        h->a = a;
        h->cap = cap;
    }
    int64_t i = h->n++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (h->a[p] <= v)
            break;
        h->a[i] = h->a[p];
        i = p;
    }
    h->a[i] = v;
    return 1;
}

static hkey_t heap_pop(heap_t *h)
{
    hkey_t top = h->a[0];
    hkey_t v = h->a[--h->n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= h->n)
            break;
        if (c + 1 < h->n && h->a[c + 1] < h->a[c])
            c++;
        if (h->a[c] >= v)
            break;
        h->a[i] = h->a[c];
        i = c;
    }
    h->a[i] = v;
    return top;
}

/* Backtrack goal→source into path_out; caller reverses.  Returns length. */
static int64_t backtrack(const int32_t *parent, int64_t goal,
                         int32_t *path_out)
{
    int64_t len = 0;
    int64_t idx = goal;
    for (;;) {
        path_out[len++] = (int32_t)idx;
        int32_t p = parent[idx];
        if (p < 0)
            break;
        idx = p;
    }
    return len;
}

/* Moves out of index in the reference order (x+1, x-1, y+1, y-1, via):
 * the successors into succs, each move's axis code (0 = x step, 1 = y
 * step, 2 = via) into axes and the successor's x and y into xs and ys.
 * Returns how many. */
static inline int moves(int64_t index, int64_t width, int64_t height,
                        int64_t *succs, int64_t *axes, int64_t *xs,
                        int64_t *ys)
{
    int64_t plane = width * height;
    int64_t layer = index >= plane;
    int64_t rest = index - layer * plane;
    int64_t y = rest / width;
    int64_t x = rest - y * width;
    int nmov = 0;
    if (x + 1 < width) {
        succs[nmov] = index + 1; axes[nmov] = 0;
        xs[nmov] = x + 1; ys[nmov] = y; nmov++;
    }
    if (x > 0) {
        succs[nmov] = index - 1; axes[nmov] = 0;
        xs[nmov] = x - 1; ys[nmov] = y; nmov++;
    }
    if (y + 1 < height) {
        succs[nmov] = index + width; axes[nmov] = 1;
        xs[nmov] = x; ys[nmov] = y + 1; nmov++;
    }
    if (y > 0) {
        succs[nmov] = index - width; axes[nmov] = 1;
        xs[nmov] = x; ys[nmov] = y - 1; nmov++;
    }
    succs[nmov] = index + (layer ? -plane : plane);
    axes[nmov] = 2; xs[nmov] = x; ys[nmov] = y; nmov++;
    return nmov;
}

/* The successors alone. */
static inline int successors(int64_t index, int64_t width, int64_t height,
                             int64_t *succs)
{
    int64_t axes[5], xs[5], ys[5];
    return moves(index, width, height, succs, axes, xs, ys);
}

/* Manhattan distance from (x, y) to the target box. */
static inline int64_t box_distance(int64_t x, int64_t y, int64_t tx0,
                                   int64_t tx1, int64_t ty0, int64_t ty1)
{
    int64_t dx = x < tx0 ? tx0 - x : (x > tx1 ? x - tx1 : 0);
    int64_t dy = y < ty0 ? ty0 - y : (y > ty1 ? y - ty1 : 0);
    return dx + dy;
}

/* Mirror of backward_search in pure.py: Dijkstra from the seeds on
 * reduced costs, keyed (E, index).  Bit 1 of target[] marks the goals,
 * and the caller has set bit 8 on every source.  The search sets bit 4
 * on every node it gives an open key, keeps that key in excess[] and
 * the node in touched[] (*n_touched entries; a node enters once), and
 * sets bit 2 when it settles the node, whose exact excess excess[] then
 * holds.  *visits counts the settled nodes.  Returns ST_NOPATH when no
 * open key is left and no source was settled; ST_NOMEM when the heap
 * cannot grow; else ST_FOUND with *rest the smallest open key, or the
 * last excess when none is left, or 0 when a walk would reach G_LIMIT.
 * The caller clears the marks.
 */
static int64_t backward_search(
    const int32_t *occ, const int32_t *pin, int64_t width, int64_t height,
    int64_t net_id, int64_t allow_conflicts,
    const uint8_t *frozen, int64_t frozen_len,
    const int64_t *penalties, int64_t pen_len,
    const int64_t *row0, const int64_t *row1, int64_t base_penalty,
    int64_t tx0, int64_t tx1, int64_t ty0, int64_t ty1,
    uint8_t *target, const int64_t *seeds, int64_t n_seeds, int64_t cap,
    int64_t *excess, heap_t *heap, int32_t *touched, int64_t *n_touched,
    int64_t *visits, int64_t *rest)
{
    int64_t plane = width * height;
    int64_t e = 0;
    int reached = 0;

    for (int64_t i = 0; i < n_seeds; i++) {
        int64_t idx = seeds[i];
        target[idx] |= 4;
        excess[idx] = 0;
        touched[(*n_touched)++] = (int32_t)idx;
        if (!heap_push(heap, (hkey_t)idx))
            return ST_NOMEM;
    }
    while (heap->n > 0) {
        hkey_t entry = heap_pop(heap);
        int64_t index = (int64_t)(entry & (hkey_t)INDEX_MASK);
        e = (int64_t)(entry >> G_SHIFT);
        if ((target[index] & 2) || excess[index] != e)
            continue; /* stale entry */
        target[index] |= 2;
        (*visits)++;
        int64_t owner = occ[index];
        int64_t extra = 0;
        if (owner != CELL_FREE && owner != net_id)
            extra = base_penalty + (owner < pen_len ? penalties[owner] : 0);
        int64_t layer = index >= plane;
        int64_t y = (index - layer * plane) / width;
        int64_t x = index - layer * plane - y * width;
        /* e + h(index) is a settled node's walk cost, below G_LIMIT. */
        int64_t reach = e + box_distance(x, y, tx0, tx1, ty0, ty1);
        const int64_t *row = layer ? row1 : row0;
        int64_t preds[5], axes[5], pxs[5], pys[5];
        int nmov = moves(index, width, height, preds, axes, pxs, pys);
        for (int m = 0; m < nmov; m++) {
            int64_t pred = preds[m];
            if (target[pred] & 2)
                continue;
            int64_t pown = occ[pred];
            if (pown != CELL_FREE && pown != net_id
                && (pown == CELL_OBSTACLE || !allow_conflicts
                    || (pown < frozen_len && frozen[pown]) || pin[pred]))
                continue;
            if (extra >= G_LIMIT - reach
                || row[axes[m]] >= G_LIMIT - reach - extra) {
                *rest = 0;
                return ST_FOUND;
            }
            int64_t key = reach + extra + row[axes[m]]
                          - box_distance(pxs[m], pys[m], tx0, tx1, ty0, ty1);
            if (target[pred] & 4) {
                if (excess[pred] <= key)
                    continue;
            } else {
                target[pred] |= 4;
                touched[(*n_touched)++] = (int32_t)pred;
            }
            excess[pred] = key;
            if (!heap_push(heap, ((hkey_t)key << G_SHIFT) | (hkey_t)pred))
                return ST_NOMEM;
        }
        if (target[index] & 8) {
            reached = 1;
            break;
        }
        if (*visits == cap)
            break;
    }
    while (heap->n > 0) {
        hkey_t top = heap->a[0];
        int64_t index = (int64_t)(top & (hkey_t)INDEX_MASK);
        int64_t key = (int64_t)(top >> G_SHIFT);
        if (!(target[index] & 2) && excess[index] == key) {
            *rest = key;
            return ST_FOUND;
        }
        heap_pop(heap);
    }
    if (!reached)
        return ST_NOPATH;
    *rest = e;
    return ST_FOUND;
}

/* Mirror of min_key_backtrack in pure.py: the goal→source chain (the
 * caller reverses) that steps from each node m to the optimal
 * predecessor p, best[p] + cost(p->m) == best[m], with the smallest
 * plain (f, g, index) key.  Returns its length. */
static int64_t min_key_backtrack(
    const int32_t *occ, int64_t width, int64_t height, int64_t net_id,
    const int64_t *penalties, int64_t pen_len,
    const int64_t *row0, const int64_t *row1, int64_t base_penalty,
    int64_t tx0, int64_t tx1, int64_t ty0, int64_t ty1,
    const int64_t *best, const int64_t *stamp, int64_t gen,
    int64_t goal, int32_t *path_out)
{
    int64_t plane = width * height;
    int64_t len = 0;
    int64_t index = goal;

    path_out[len++] = (int32_t)index;
    while (best[index]) {
        int64_t owner = occ[index];
        int64_t reach = best[index];
        if (owner != CELL_FREE && owner != net_id)
            reach -= base_penalty + (owner < pen_len ? penalties[owner] : 0);
        const int64_t *row = index >= plane ? row1 : row0;
        int64_t succs[5], axes[5], xs[5], ys[5];
        int nmov = moves(index, width, height, succs, axes, xs, ys);
        int64_t pick = -1;
        hkey_t pick_key = 0;
        for (int m = 0; m < nmov; m++) {
            int64_t pred = succs[m];
            int64_t g = best[pred];
            if (stamp[pred] != gen || g + row[axes[m]] != reach)
                continue;
            int64_t f = g + box_distance(xs[m], ys[m], tx0, tx1, ty0, ty1);
            hkey_t key = ((hkey_t)f << F_SHIFT) | ((hkey_t)g << G_SHIFT)
                         | (hkey_t)pred;
            if (pick < 0 || key < pick_key) {
                pick = pred;
                pick_key = key;
            }
        }
        index = pick;
        path_out[len++] = (int32_t)index;
    }
    return len;
}

/* out[0] = goal cost (or overflowing g on ST_OVERFLOW)
 * out[1] = expansions
 * out[2] = path length (goal-first; caller reverses)
 * out[3] = flood visits (nodes the backward search settled)
 *
 * n_seeds > 0 asks for the backward search first (see
 * backward_search).  When it proves that no source reaches a target,
 * the search ends with no path.  Otherwise, when rest > 0, A* adds
 * excess[] to the heuristic of every node with bit 2 and
 * rest to every other node's, and reads its path with
 * min_key_backtrack: the bound costs a search without it one test per
 * push.  The marks are cleared before the path is written over the
 * touched list.
 */
int64_t repro_astar(
    const int32_t *occ, const int32_t *pin,
    int64_t width, int64_t height,
    int64_t net_id, int64_t allow_conflicts,
    const uint8_t *frozen, int64_t frozen_len,
    const int64_t *penalties, int64_t pen_len,
    const int64_t *row0, const int64_t *row1, int64_t base_penalty,
    uint8_t *target, int64_t *excess,
    const int64_t *seeds, int64_t n_seeds, int64_t settle_cap,
    int64_t tx0, int64_t tx1, int64_t ty0, int64_t ty1,
    const int64_t *src_idx, const int64_t *src_h, int64_t n_src,
    int64_t *best, int32_t *parent, int64_t *stamp, int64_t gen,
    int32_t *path_out, int64_t *out)
{
    int64_t plane = width * height;
    heap_t heap = {0, 0, 0};
    int64_t expansions = 0;
    int64_t goal = -1;
    int64_t goal_cost = 0;
    int64_t status = ST_NOPATH;
    /* Nodes the backward search marked, listed in path_out, and what a
     * node it did not settle adds to the heuristic: 0 leaves A* plain. */
    int64_t touched = 0;
    int64_t rest = 0;

    out[3] = 0;
    if (n_seeds > 0) {
        for (int64_t i = 0; i < n_src; i++)
            target[src_idx[i]] |= 8;
        status = backward_search(
            occ, pin, width, height, net_id, allow_conflicts, frozen,
            frozen_len, penalties, pen_len, row0, row1, base_penalty,
            tx0, tx1, ty0, ty1, target, seeds, n_seeds, settle_cap, excess,
            &heap, path_out, &touched, &out[3], &rest);
        if (status != ST_FOUND)
            goto done;
        status = ST_NOPATH;
        heap.n = 0;
    }

    for (int64_t i = 0; i < n_src; i++) {
        int64_t idx = src_idx[i];
        if (stamp[idx] != gen || best[idx] > 0) {
            stamp[idx] = gen;
            best[idx] = 0;
            parent[idx] = -1;
            int64_t h = src_h[i];
            if (rest > 0)
                h += (target[idx] & 2) ? excess[idx] : rest;
            if (!heap_push(&heap, ((hkey_t)h << F_SHIFT) | (hkey_t)idx)) {
                status = ST_NOMEM;
                goto done;
            }
        }
    }

    while (heap.n > 0) {
        hkey_t entry = heap_pop(&heap);
        int64_t index = (int64_t)(entry & (hkey_t)INDEX_MASK);
        int64_t g = (int64_t)((entry >> G_SHIFT) & (hkey_t)FIELD_MASK);
        if (stamp[index] != gen || best[index] != g)
            continue; /* stale entry */
        if (target[index] & 1) {
            goal = index;
            goal_cost = g;
            status = ST_FOUND;
            break;
        }
        expansions++;
        const int64_t *row = index >= plane ? row1 : row0;
        int64_t succs[5], axes[5], sxs[5], sys[5];
        int nmov = moves(index, width, height, succs, axes, sxs, sys);

        for (int m = 0; m < nmov; m++) {
            int64_t succ = succs[m];
            int64_t owner = occ[succ];
            int64_t extra;
            if (owner == CELL_FREE || owner == net_id) {
                extra = 0;
            } else if (owner == CELL_OBSTACLE || !allow_conflicts) {
                continue;
            } else if ((owner < frozen_len && frozen[owner]) || pin[succ]) {
                continue;
            } else {
                extra = base_penalty
                        + (owner < pen_len ? penalties[owner] : 0);
            }
            int64_t new_g = g + row[axes[m]] + extra;
            if (stamp[succ] != gen)
                stamp[succ] = gen;
            else if (best[succ] <= new_g)
                continue;
            best[succ] = new_g;
            parent[succ] = (int32_t)index;
            if (new_g >= G_LIMIT) {
                out[0] = new_g;
                status = ST_OVERFLOW;
                goto done;
            }
            int64_t f = new_g
                        + box_distance(sxs[m], sys[m], tx0, tx1, ty0, ty1);
            if (rest > 0)
                f += (target[succ] & 2) ? excess[succ] : rest;
            hkey_t key = ((hkey_t)f << F_SHIFT) | ((hkey_t)new_g << G_SHIFT)
                         | (hkey_t)succ;
            if (!heap_push(&heap, key)) {
                status = ST_NOMEM;
                goto done;
            }
        }
    }

done:
    if (n_seeds > 0) {
        for (int64_t i = 0; i < touched; i++)
            target[path_out[i]] &= 1;
        for (int64_t i = 0; i < n_src; i++)
            target[src_idx[i]] &= 1;
    }
    free(heap.a);
    out[1] = expansions;
    if (status == ST_NOPATH) {
        out[0] = 0;
        out[2] = 0;
    } else if (status == ST_FOUND) {
        out[0] = goal_cost;
        out[2] = rest > 0
            ? min_key_backtrack(occ, width, height, net_id, penalties,
                                pen_len, row0, row1, base_penalty,
                                tx0, tx1, ty0, ty1, best, stamp, gen, goal,
                                path_out)
            : backtrack(parent, goal, path_out);
    }
    return status;
}

/* out[0] = path length (goal-first; caller reverses) */
int64_t repro_lee(
    const int32_t *occ,
    int64_t width, int64_t height,
    int64_t net_id,
    const uint8_t *target,
    const int64_t *src_idx, int64_t n_src,
    int32_t *parent, int64_t *stamp, int64_t gen,
    int32_t *path_out, int64_t *out)
{
    int64_t plane = width * height;
    int64_t n = 2 * plane;
    int32_t *queue = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    if (!queue)
        return ST_NOMEM;
    int64_t head = 0, tail = 0;
    int64_t goal = -1;

    for (int64_t i = 0; i < n_src; i++) {
        int64_t idx = src_idx[i];
        if (stamp[idx] != gen) {
            stamp[idx] = gen;
            parent[idx] = -1;
            if (target[idx]) {
                goal = idx;
                break;
            }
            queue[tail++] = (int32_t)idx;
        }
    }

    while (head < tail && goal < 0) {
        int64_t index = queue[head++];
        int64_t succs[5];
        int nmov = successors(index, width, height, succs);
        for (int m = 0; m < nmov; m++) {
            int64_t succ = succs[m];
            if (stamp[succ] == gen)
                continue;
            int64_t owner = occ[succ];
            if (owner != CELL_FREE && owner != net_id)
                continue;
            stamp[succ] = gen;
            parent[succ] = (int32_t)index;
            if (target[succ]) {
                goal = succ;
                break;
            }
            queue[tail++] = (int32_t)succ;
        }
    }

    free(queue);
    if (goal < 0) {
        out[0] = 0;
        return ST_NOPATH;
    }
    out[0] = backtrack(parent, goal, path_out);
    return ST_FOUND;
}
