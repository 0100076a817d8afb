/* Segment kernel of the sigma sieve and the membership scan (see sieve.py).

   Slot i of a segment stands for the odd integer n = lo + 2i. sigma_fill
   keeps two accumulators per slot, the cofactor (n at first) and the
   partial sigma (1 at first), side by side in one 16-byte cell, so a hit
   reads and writes one cache line. It pulls every odd prime
   p <= sqrt(hi - 1) out of its odd multiples, which lie p slots apart. It
   works through the segment in blocks of BLOCK cells and finishes each
   block while it is in cache (the segmented sieve of Oliveira e Silva,
   Herzog and Pardi, Math. Comp. 83, 2014), in three steps:

   1. the odd primes below BLOCK, each carrying its next slot from block
      to block;
   2. the larger primes, which hit a block at most once each: their hits
      in the segment are sorted into per-block buckets once per call;
   3. one pass over the cells: what is left of the cofactor is 1 or one
      prime q > sqrt(hi - 1), which contributes q + 1, taken without a
      branch; the slot's sigma is tested for membership, and a member's
      slot and sigma go out as a pair. The sigma of every slot is written
      out too, unless the caller passes no array for it (a search reads
      sigma only at members). This pass is the kernel's only membership
      scan.

   Division by p is a multiplication by its inverse modulo 2^64 (Granlund
   and Montgomery, PLDI 1994): c * inv is c / p exactly when p divides c,
   and c * inv * p overflows otherwise. All value arithmetic is in
   uint64_t, whose overflow is defined; sieve.py keeps n below 2^51, so
   every true value (n, 2n, sigma(n) < 4n) stays below 2^53.

   sigma_fill's scratch, the block of cells and the per-block buckets, lives
   in a struct work that the caller owns (work_new, work_free) and passes to
   every call. It keeps its memory between calls, and the buckets grow only
   when a call needs more, so once a caller has sieved its largest segment a
   call allocates nothing. The kernel keeps no static state: calls on distinct
   works are reentrant, and ctypes releases the GIL around each call, so
   threads, each with its own work, run them in parallel.

   The library exports work_new, work_free and sigma_fill, in that order:
   the order sets where sigma_fill lands in the built library, on which its
   speed depends (CHANGES.md). */

#include <stdint.h>
#include <stdlib.h>

/* slots per block: a block of cells fills 512 KiB */
#define BLOCK 32768
/* the odd primes below BLOCK, pi(32768) - 1; bounds next[] for any input,
   since entries past it go to the buckets, which are exact for any p */
#define BLOCK_PRIMES 3511

static uint64_t inverse(uint64_t p)
{
    /* Newton's iteration: p * p = 1 mod 8 gives 3 correct bits, each step
       doubles them */
    uint64_t x = p;
    for (int k = 0; k < 5; k++)
        x *= 2 - p * x;
    return x;
}

/* slot of the first odd multiple of p at or above lo */
static uint64_t first_slot(uint64_t lo, uint64_t p)
{
    uint64_t f = (lo + p - 1) / p * p;
    if (!(f & 1))
        f += p;
    return (f - lo) / 2;
}

/* a slot's cofactor and partial sigma */
struct cell {
    uint64_t cof, sig;
};

/* p divides the slot's cofactor: take out p^e, multiply by 1 + p + ... + p^e */
static inline void hit(struct cell *cell, uint64_t p, uint64_t inv)
{
    uint64_t c = cell->cof * inv, pe = p, sum = 1 + p, t, back;
    /* t = c / p exactly when t * p does not overflow */
    while (t = c * inv, !__builtin_mul_overflow(t, p, &back)) {
        c = t;
        pe *= p;
        sum += pe;
    }
    cell->cof = c;
    cell->sig *= sum;
}

/* a growing list of one block's large-prime hits, each p << 32 | slot in block */
struct bucket {
    uint64_t *hit;
    uint64_t n, cap;
};

/* a caller's scratch, kept from call to call: a bucket per block, and
   the cells of one block */
struct work {
    struct bucket *bucket;
    uint64_t nbucket;
    struct cell cell[BLOCK];
};

/* empty buckets for blocks blocks, keeping their capacity; -1 when memory
   runs out */
static int empty_buckets(struct work *w, uint64_t blocks)
{
    if (w->nbucket < blocks) {
        struct bucket *grown = realloc(w->bucket, blocks * sizeof *grown);
        if (!grown)
            return -1;
        for (uint64_t b = w->nbucket; b < blocks; b++)
            grown[b] = (struct bucket){0};
        w->bucket = grown;
        w->nbucket = blocks;
    }
    for (uint64_t b = 0; b < blocks; b++)
        w->bucket[b].n = 0;
    return 0;
}

static int push(struct bucket *b, uint64_t entry)
{
    if (b->n == b->cap) {
        uint64_t cap = b->cap ? 2 * b->cap : 1024;
        uint64_t *grown = realloc(b->hit, cap * sizeof *grown);
        if (!grown)
            return -1;
        b->hit = grown;
        b->cap = cap;
    }
    b->hit[b->n++] = entry;
    return 0;
}

/* 1 when n is a member: d = 2n - s is positive and divides s = sigma(n) */
static inline int is_member(uint64_t two_n, uint64_t s)
{
    uint64_t d = two_n - s;
    if (s >= two_n)
        return 0;
    /* sigma >= 1, and s < 4n / 3 means s / d < 2, so d divides s only when
       s == d: most slots need no division */
    if (3 * s < 2 * two_n)
        return s == d;
    /* s < 2n < 2^52 converts exactly and, when d divides s, so do d and the
       quotient, so the float quotient is exact; when d does not divide s, no
       integer q has q * d == s */
    return (uint64_t)((double)s / (double)d) * d == s;
}

/* work_new and work_free come first: sigma_fill after them sits at the
   same offset modulo 64 as in the builds its speed was measured on */

/* a caller's scratch for sigma_fill, empty; NULL when memory runs out */
struct work *work_new(void)
{
    return calloc(1, sizeof(struct work));
}

/* frees w and all it holds; w may be NULL */
void work_free(struct work *w)
{
    if (!w)
        return;
    for (uint64_t b = 0; b < w->nbucket; b++)
        free(w->bucket[b].hit);
    free(w->bucket);
    free(w);
}

/* Write each member slot i, ascending, to hits as the pair i, sigma(lo + 2i),
   and, unless sig is NULL, fill sig[0..m) with sigma(lo + 2i); w is the
   scratch. hits has room for m pairs. primes is ascending and holds every
   odd prime up to sqrt(hi - 1), hi = lo + 2m; 2 and the primes above
   sqrt(hi - 1) are skipped. Returns the number of members, or UINT64_MAX
   when memory runs out; w stays valid either way. */
uint64_t sigma_fill(struct work *w, uint64_t lo, uint64_t m, const uint64_t *primes,
                    uint64_t np, uint64_t *sig, uint64_t *hits)
{
    uint64_t top = lo + 2 * m - 1, blocks = (m + BLOCK - 1) / BLOCK;
    uint64_t next[BLOCK_PRIMES];
    uint64_t k = 0, nb = 0, count = 0, i, j;
    int failed = empty_buckets(w, blocks) != 0;
    struct cell *cell = w->cell;
    struct bucket *bucket = w->bucket;

    while (k < np && primes[k] < 3)
        k++;
    const uint64_t *small = primes + k;
    /* a prime below BLOCK may hit a block many times; it carries its next
       slot, counted from the start of the current block */
    for (; k < np && primes[k] < BLOCK && primes[k] <= top / primes[k] && nb < BLOCK_PRIMES; k++)
        next[nb++] = first_slot(lo, primes[k]);
    /* every hit of a larger prime goes to the bucket of its block */
    for (; !failed && k < np && primes[k] <= top / primes[k]; k++)
        for (i = first_slot(lo, primes[k]); !failed && i < m; i += primes[k])
            failed = push(&bucket[i / BLOCK], primes[k] << 32 | i % BLOCK) != 0;

    for (uint64_t b = 0; !failed && b < blocks; b++) {
        uint64_t b0 = b * BLOCK, len = m - b0 < BLOCK ? m - b0 : BLOCK;
        for (i = 0; i < len; i++) {
            cell[i].cof = lo + 2 * (b0 + i);
            cell[i].sig = 1;
        }
        for (j = 0; j < nb; j++) {
            uint64_t p = small[j], inv = inverse(p);
            for (i = next[j]; i < len; i += p)
                hit(&cell[i], p, inv);
            next[j] = i - len;
        }
        for (j = 0; j < bucket[b].n; j++) {
            uint64_t p = bucket[b].hit[j] >> 32, at = bucket[b].hit[j] & 0xffffffff;
            hit(&cell[at], p, inverse(p));
        }
        /* c + (c != 1) is 1 for c = 1 and c + 1 for a prime c; a branch on
           c > 1 would be a near coin flip */
        for (i = 0; i < len; i++) {
            uint64_t c = cell[i].cof, s = cell[i].sig * (c + (c != 1));
            if (sig)
                sig[b0 + i] = s;
            if (is_member(2 * (lo + 2 * (b0 + i)), s)) {
                hits[2 * count] = b0 + i;
                hits[2 * count + 1] = s;
                count++;
            }
        }
    }
    return failed ? UINT64_MAX : count;
}
