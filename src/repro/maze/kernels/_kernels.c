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

/* Successors of index in the reference move order (x+1, x-1, y+1, y-1,
 * via) into succs; returns how many. */
static int successors(int64_t index, int64_t width, int64_t height,
                      int64_t *succs)
{
    int64_t plane = width * height;
    int64_t layer = index >= plane;
    int64_t rest = index - layer * plane;
    int64_t y = rest / width;
    int64_t x = rest - y * width;
    int nmov = 0;
    if (x + 1 < width)
        succs[nmov++] = index + 1;
    if (x > 0)
        succs[nmov++] = index - 1;
    if (y + 1 < height)
        succs[nmov++] = index + width;
    if (y > 0)
        succs[nmov++] = index - width;
    succs[nmov++] = index + (layer ? -plane : plane);
    return nmov;
}

/* Mirror of flood_closes in pure.py: flood from the seeds over free
 * cells, giving up at the (cap+1)-th free cell or at copper of net_id
 * that is not a seed.  Returns 1 when the queue drains first.  The
 * caller's seeds are the targets, so target[] already marks them; the
 * flood marks the free cells it enters with 2 and clears them again
 * before returning.  queue holds every node entered once, so n_nodes
 * entries suffice.  *visits counts the nodes popped.
 */
static int flood_closes(const int32_t *occ, int64_t width, int64_t height,
                        int64_t net_id, uint8_t *target,
                        const int64_t *seeds, int64_t n_seeds, int64_t cap,
                        int32_t *queue, int64_t *visits)
{
    int64_t head = 0, tail = 0;
    int closed = 1;

    for (int64_t i = 0; i < n_seeds; i++)
        queue[tail++] = (int32_t)seeds[i];
    while (closed && head < tail) {
        int64_t succs[5];
        int nmov = successors(queue[head++], width, height, succs);
        for (int m = 0; m < nmov; m++) {
            int64_t succ = succs[m];
            if (target[succ])
                continue;
            int64_t owner = occ[succ];
            if (owner == CELL_FREE) {
                if (tail - n_seeds == cap) {
                    closed = 0;
                    break;
                }
                target[succ] = 2;
                queue[tail++] = (int32_t)succ;
            } else if (owner == net_id) {
                closed = 0;
                break;
            }
        }
    }
    for (int64_t i = n_seeds; i < tail; i++)
        target[queue[i]] = 0;
    *visits = head;
    return closed;
}

/* out[0] = goal cost (or overflowing g on ST_OVERFLOW)
 * out[1] = expansions
 * out[2] = path length (goal-first; caller reverses)
 * out[3] = flood visits
 *
 * n_seeds > 0 asks for the target-side flood first (see flood_closes);
 * the caller passes seeds only when a closed flood proves "no path".
 */
int64_t repro_astar(
    const int32_t *occ, const int32_t *pin,
    int64_t width, int64_t height,
    int64_t net_id, int64_t allow_conflicts,
    const uint8_t *frozen, int64_t frozen_len,
    const int64_t *penalties, int64_t pen_len,
    const int64_t *row0, const int64_t *row1,
    int64_t step, int64_t base_penalty,
    uint8_t *target,
    const int64_t *seeds, int64_t n_seeds, int64_t flood_cap,
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
    int64_t status;

    out[3] = 0;
    if (n_seeds > 0
        && flood_closes(occ, width, height, net_id, target, seeds, n_seeds,
                        flood_cap, path_out, &out[3])) {
        out[0] = 0;
        out[1] = 0;
        out[2] = 0;
        return ST_NOPATH;
    }

    for (int64_t i = 0; i < n_src; i++) {
        int64_t idx = src_idx[i];
        if (stamp[idx] != gen || best[idx] > 0) {
            stamp[idx] = gen;
            best[idx] = 0;
            parent[idx] = -1;
            if (!heap_push(&heap, ((hkey_t)src_h[i] << F_SHIFT)
                                      | (hkey_t)idx)) {
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
        if (target[index]) {
            goal = index;
            goal_cost = g;
            break;
        }
        expansions++;
        int64_t layer = index >= plane;
        const int64_t *row = layer ? row1 : row0;
        int64_t rest = index - layer * plane;
        int64_t y = rest / width;
        int64_t x = rest - y * width;

        /* Moves in the reference order: x+1, x-1, y+1, y-1, via. */
        int64_t succs[5], axes[5], sxs[5], sys[5];
        int nmov = 0;
        if (x + 1 < width) {
            succs[nmov] = index + 1; axes[nmov] = 0;
            sxs[nmov] = x + 1; sys[nmov] = y; nmov++;
        }
        if (x > 0) {
            succs[nmov] = index - 1; axes[nmov] = 0;
            sxs[nmov] = x - 1; sys[nmov] = y; nmov++;
        }
        if (y + 1 < height) {
            succs[nmov] = index + width; axes[nmov] = 1;
            sxs[nmov] = x; sys[nmov] = y + 1; nmov++;
        }
        if (y > 0) {
            succs[nmov] = index - width; axes[nmov] = 1;
            sxs[nmov] = x; sys[nmov] = y - 1; nmov++;
        }
        succs[nmov] = index + (layer ? -plane : plane);
        axes[nmov] = 2; sxs[nmov] = x; sys[nmov] = y; nmov++;

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
            int64_t sx = sxs[m], sy = sys[m];
            int64_t dx = sx < tx0 ? tx0 - sx : (sx > tx1 ? sx - tx1 : 0);
            int64_t dy = sy < ty0 ? ty0 - sy : (sy > ty1 ? sy - ty1 : 0);
            if (new_g >= G_LIMIT) {
                out[0] = new_g;
                out[1] = expansions;
                status = ST_OVERFLOW;
                goto done;
            }
            hkey_t key = ((hkey_t)(new_g + (dx + dy) * step) << F_SHIFT)
                         | ((hkey_t)new_g << G_SHIFT) | (hkey_t)succ;
            if (!heap_push(&heap, key)) {
                status = ST_NOMEM;
                goto done;
            }
        }
    }

    if (goal < 0) {
        out[0] = 0;
        out[1] = expansions;
        out[2] = 0;
        status = ST_NOPATH;
    } else {
        out[0] = goal_cost;
        out[1] = expansions;
        out[2] = backtrack(parent, goal, path_out);
        status = ST_FOUND;
    }
done:
    free(heap.a);
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
