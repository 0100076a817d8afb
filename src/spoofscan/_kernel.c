/* Segment kernel of the sigma sieve and the membership scan (see sieve.py).

   Slot i of a segment stands for the odd integer n = lo + 2i. sigma_fill
   keeps two accumulators per slot, the cofactor (n at first) and the
   partial sigma (1 at first), and pulls every odd prime p <= sqrt(hi - 1)
   out of its odd multiples, which lie p slots apart. Division by p is a
   multiplication by its inverse modulo 2^64 (Granlund and Montgomery,
   PLDI 1994): c * inv is c / p exactly when p divides c, and exceeds
   UINT64_MAX / p otherwise. All value arithmetic is in uint64_t, whose
   overflow is defined; sieve.py keeps n below 2^61, so every true value
   (n, 2n, sigma(n)) stays below 2^63.

   Both functions are reentrant and keep no static state; ctypes releases
   the GIL around each call, so threads run them in parallel. */

#include <stdint.h>

/* slots per block: the two 8-byte accumulators of a block fill 512 KiB */
#define BLOCK 32768
/* the odd primes below BLOCK, pi(32768) - 1; bounds next[] for any input,
   since entries past it take the single pass, which is exact for any p */
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
static inline void hit(uint64_t *cof, uint64_t *sig, uint64_t p, uint64_t inv,
                       uint64_t lim)
{
    uint64_t c = *cof * inv, pe = p, sum = 1 + p, t;
    while ((t = c * inv) <= lim) {
        c = t;
        pe *= p;
        sum += pe;
    }
    *cof = c;
    *sig *= sum;
}

/* Fill sig[0..m) with sigma(lo + 2i); cof[0..m) is scratch. primes holds
   the ascending odd primes up to sqrt(lo + 2m - 1), and no others. */
void sigma_fill(uint64_t lo, uint64_t m, const uint64_t *primes, uint64_t np,
                uint64_t *cof, uint64_t *sig)
{
    /* a prime below BLOCK hits every block; its next slot is carried over */
    uint64_t next[BLOCK_PRIMES];
    uint64_t nb = 0, i;

    while (nb < np && nb < BLOCK_PRIMES && primes[nb] < BLOCK) {
        next[nb] = first_slot(lo, primes[nb]);
        nb++;
    }
    /* small primes block by block, so both arrays stay in cache (the
       segmented sieve of Oliveira e Silva, Herzog and Pardi, Math. Comp.
       83, 2014) */
    for (uint64_t b0 = 0; b0 < m; b0 += BLOCK) {
        uint64_t b1 = m - b0 < BLOCK ? m : b0 + BLOCK;
        for (i = b0; i < b1; i++) {
            cof[i] = lo + 2 * i;
            sig[i] = 1;
        }
        for (uint64_t k = 0; k < nb; k++) {
            uint64_t p = primes[k], inv = inverse(p), lim = UINT64_MAX / p;
            for (i = next[k]; i < b1; i += p)
                hit(&cof[i], &sig[i], p, inv, lim);
            next[k] = i;
        }
    }
    /* larger primes hit each block at most once: one pass over the segment */
    for (uint64_t k = nb; k < np; k++) {
        uint64_t p = primes[k];
        i = first_slot(lo, p);
        if (i >= m)
            continue;
        uint64_t inv = inverse(p), lim = UINT64_MAX / p;
        for (; i < m; i += p)
            hit(&cof[i], &sig[i], p, inv, lim);
    }
    /* what is left is 1 or one prime q > sqrt(hi - 1), contributing q + 1 */
    for (i = 0; i < m; i++)
        if (cof[i] > 1)
            sig[i] *= cof[i] + 1;
}

/* Write to hits the slots i whose n = lo + 2i is a member: d = 2n - sigma
   is positive and divides sigma. Returns the number of hits. */
uint64_t member_scan(uint64_t lo, uint64_t m, const uint64_t *sig, uint64_t *hits)
{
    uint64_t count = 0;
    for (uint64_t i = 0; i < m; i++) {
        uint64_t two_n = 2 * (lo + 2 * i), s = sig[i];
        if (s < two_n && s % (two_n - s) == 0)
            hits[count++] = i;
    }
    return count;
}
