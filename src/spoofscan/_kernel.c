/* Segment kernel of the sigma sieve and the membership scan (see sieve.py).

   Slot i of a segment stands for the odd integer n = lo + 2i. sigma_fill
   keeps two accumulators per slot, the cofactor (n at first) and the
   partial sigma (1 at first), and pulls every odd prime p <= sqrt(hi - 1)
   out of its odd multiples, which lie p slots apart. It works through the
   segment in blocks of BLOCK slots and finishes each block while it is in
   cache (the segmented sieve of Oliveira e Silva, Herzog and Pardi, Math.
   Comp. 83, 2014), in four steps:

   1. the odd primes below BLOCK, each carrying its next slot from block
      to block;
   2. the larger primes, which hit a block at most once each: their hits
      in the segment are sorted into per-block buckets once per call;
   3. the leftover: what is left of the cofactor is 1 or one prime
      q > sqrt(hi - 1), which contributes q + 1;
   4. the membership scan of the block's sigma values.

   Division by p is a multiplication by its inverse modulo 2^64 (Granlund
   and Montgomery, PLDI 1994): c * inv is c / p exactly when p divides c,
   and c * inv * p overflows otherwise. All value arithmetic is in
   uint64_t, whose overflow is defined; sieve.py keeps n below 2^51, so
   every true value (n, 2n, sigma(n) < 4n) stays below 2^53.

   Both functions are reentrant and keep no static state; ctypes releases
   the GIL around each call, so threads run them in parallel. */

#include <stdint.h>
#include <stdlib.h>

/* slots per block: a block's sigma values and cofactors fill 512 KiB */
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

/* p divides the slot's cofactor: take out p^e, multiply by 1 + p + ... + p^e */
static inline void hit(uint64_t *cof, uint64_t *sig, uint64_t p, uint64_t inv)
{
    uint64_t c = *cof * inv, pe = p, sum = 1 + p, t, back;
    /* t = c / p exactly when t * p does not overflow */
    while (t = c * inv, !__builtin_mul_overflow(t, p, &back)) {
        c = t;
        pe *= p;
        sum += pe;
    }
    *cof = c;
    *sig *= sum;
}

/* a growing list of one block's large-prime hits, each p << 32 | slot in block */
struct bucket {
    uint64_t *hit;
    uint64_t n, cap;
};

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

/* Write to hits the slots i in [i0, i1) whose n = lo + 2i is a member:
   d = 2n - sigma is positive and divides sigma. Returns the number of hits. */
uint64_t member_scan(uint64_t lo, uint64_t i0, uint64_t i1, const uint64_t *sig,
                     uint64_t *hits)
{
    uint64_t count = 0;
    for (uint64_t i = i0; i < i1; i++) {
        uint64_t two_n = 2 * (lo + 2 * i), s = sig[i], d = two_n - s;
        if (s >= two_n)
            continue;
        /* sigma >= 1, and s < 4n / 3 means s / d < 2, so d divides s only
           when s == d: most slots need no division */
        if (3 * s < 2 * two_n) {
            if (s == d)
                hits[count++] = i;
            continue;
        }
        /* s < 2n < 2^52 converts exactly and, when d divides s, so do d and
           the quotient, so the float quotient is exact; when d does not
           divide s, no integer q has q * d == s */
        if ((uint64_t)((double)s / (double)d) * d == s)
            hits[count++] = i;
    }
    return count;
}

/* Fill sig[0..m) with sigma(lo + 2i) and write the member slots, ascending,
   to hits. primes is ascending and holds every odd prime up to
   sqrt(hi - 1), hi = lo + 2m; 2 and the primes above sqrt(hi - 1) are
   skipped. Returns the number of members, or UINT64_MAX when memory runs
   out. */
uint64_t sigma_fill(uint64_t lo, uint64_t m, const uint64_t *primes, uint64_t np,
                    uint64_t *sig, uint64_t *hits)
{
    uint64_t top = lo + 2 * m - 1, blocks = (m + BLOCK - 1) / BLOCK;
    uint64_t next[BLOCK_PRIMES];
    uint64_t k = 0, nb = 0, count = 0, i, j;
    uint64_t *cof = malloc((m < BLOCK ? m : BLOCK) * sizeof *cof);
    struct bucket *bucket = calloc(blocks, sizeof *bucket);
    int failed = !cof || !bucket;

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
        uint64_t *s = sig + b0;
        for (i = 0; i < len; i++) {
            cof[i] = lo + 2 * (b0 + i);
            s[i] = 1;
        }
        for (j = 0; j < nb; j++) {
            uint64_t p = small[j], inv = inverse(p);
            for (i = next[j]; i < len; i += p)
                hit(&cof[i], &s[i], p, inv);
            next[j] = i - len;
        }
        for (j = 0; j < bucket[b].n; j++) {
            uint64_t p = bucket[b].hit[j] >> 32, at = bucket[b].hit[j] & 0xffffffff;
            hit(&cof[at], &s[at], p, inverse(p));
        }
        free(bucket[b].hit);
        bucket[b].hit = NULL;
        for (i = 0; i < len; i++)
            if (cof[i] > 1)
                s[i] *= cof[i] + 1;
        count += member_scan(lo, b0, b0 + len, sig, hits + count);
    }

    if (bucket)
        for (uint64_t b = 0; b < blocks; b++)
            free(bucket[b].hit);
    free(bucket);
    free(cof);
    return failed ? UINT64_MAX : count;
}
