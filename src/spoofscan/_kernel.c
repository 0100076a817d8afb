/* Segment kernel of the sigma sieve and the membership scan (see sieve.py).

   Slot i of a segment stands for the odd integer n = lo + 2i. sigma_fill
   keeps two accumulators per slot, the cofactor and the partial sigma,
   side by side in one 16-byte cell, so a hit reads and writes one cache
   line. It pulls every odd prime p <= sqrt(hi - 1) out of its odd
   multiples, which lie p slots apart. It works through the segment in
   blocks of BLOCK cells and finishes each block while it is in cache (the
   segmented sieve of Oliveira e Silva, Herzog and Pardi, Math. Comp. 83,
   2014), in five steps:

   1. the cells start from a pattern of period PERIOD = 9 * 25 * 49 that
      takes 3, 5 and 7 out of every slot up to their squares (pre-sieving,
      as in Walisch's primesieve): n has the code of its residue
      j = ((n - 1) / 2) mod PERIOD, 9a + 3b + c, where a, b and c are
      min(v_p(n), 2) for p = 3, 5 and 7, and the cell starts as
      n / (3^a 5^b 7^c), a multiplication by its inverse, and
      sigma(3^a) sigma(5^b) sigma(7^c). A slot step adds 2 to n, so j runs
      contiguously in slot order and wraps without a modulo; 3, 5 and 7
      are taken out whatever the prime list holds;
   2. the cube pass: the odd multiples of 27, 125 and 343, each carrying
      its next slot from block to block, still hold p; each gets p^2 back,
      trades sigma(p^2) = 1 + p + p^2 (odd, so an exact multiplication by
      its inverse) for sigma(p^e), and loses p^e;
   3. the odd primes from 11 to below BLOCK, each carrying its next slot
      from block to block;
   4. the larger primes, which hit a block at most once each: each waits
      in the list of the block of its next hit, and when that block comes
      it takes its hit and moves on to the list of the block after, so a
      list holds at most one entry per prime;
   5. one pass over the cells: what is left of the cofactor is 1 or one
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

   sigma_fill's scratch, the block of cells, the per-block lists and the
   pattern's two tables (a code byte per residue and the 27 forms, ~11.4
   KiB), is a struct work per thread, found through one pthread key: a
   thread's first call makes it and builds the tables, and the key's
   destructor frees it as the thread exits, so it is never freed under a
   running call (a thread still running at process exit leaves it to the
   operating system). The lists are built from chunks of 8 KiB, which go
   back to a spare list once their block is done, so at any span they hold
   about 8 bytes per prime from BLOCK to sqrt(hi - 1) plus one partial
   chunk per block. The work keeps its chunks between calls and takes a
   new one only when its spares run out, so once a thread has sieved its
   largest segment a call allocates nothing. The kernel's only static
   state is the key, and calls on different threads share nothing: ctypes
   releases the GIL around each call, so threads run them in parallel. The
   destructor is code of this library, which must therefore never be
   unloaded while a thread that called it lives.

   The library exports only sigma_fill; the functions before it set where it
   lands in the built library, on which its speed depends (CHANGES.md). */

#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>

/* slots per block: a block of cells fills 512 KiB */
#define BLOCK 32768
/* the odd primes below BLOCK, pi(32768) - 1; bounds next[] for any input,
   since primes past it go to the block lists, which are exact for any p */
#define BLOCK_PRIMES 3511
/* the period of the pattern of 3, 5 and 7, in slots: 9 * 25 * 49 */
#define PERIOD 11025

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

/* a slot's cofactor and partial sigma; aligned to its size, so that no
   cell straddles two cache lines */
struct cell {
    _Alignas(16) uint64_t cof;
    uint64_t sig;
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

/* entries per chunk of a block's list: a chunk fills 8 KiB */
#define CHUNK 1022

/* a piece of one block's list of large primes, each entry p << 32 | the
   slot in that block of p's next hit */
struct chunk {
    struct chunk *next;
    uint64_t n;
    uint64_t entry[CHUNK];
};

/* what 3, 5 and 7 contribute to the slots of one code 9a + 3b + c: the
   inverse of 3^a 5^b 7^c and sigma(3^a) sigma(5^b) sigma(7^c) */
struct form {
    uint64_t inv, sig;
};

/* a thread's scratch, kept from call to call: a list of chunks per block,
   the spare chunks, the pattern (the code of each residue and the form of
   each code) and the cells of one block */
struct work {
    struct chunk **list;
    uint64_t nlist;
    struct chunk *spare;
    struct form form[27];
    unsigned char code[PERIOD];
    struct cell cell[BLOCK];
};

/* empties a list, handing its chunks back to the spares */
static void to_spares(struct work *w, struct chunk **list)
{
    for (struct chunk *c = *list, *next; c; c = next) {
        next = c->next;
        c->next = w->spare;
        w->spare = c;
    }
    *list = NULL;
}

/* room for the lists of blocks blocks, all empty between calls; -1 when
   memory runs out */
static int grow_lists(struct work *w, uint64_t blocks)
{
    if (w->nlist < blocks) {
        struct chunk **grown = realloc(w->list, blocks * sizeof *grown);
        if (!grown)
            return -1;
        for (uint64_t b = w->nlist; b < blocks; b++)
            grown[b] = NULL;
        w->list = grown;
        w->nlist = blocks;
    }
    return 0;
}

/* a new first chunk for the list of block b, a spare one if there is one;
   -1 when memory runs out. Out of line: inlined into both pushes in
   sigma_fill, it slowed the small-prime loop there by ~5% near 10^8 */
static __attribute__((noinline)) int new_chunk(struct work *w, uint64_t b)
{
    struct chunk *fresh = w->spare;
    if (fresh)
        w->spare = fresh->next;
    else if (!(fresh = malloc(sizeof *fresh)))
        return -1;
    fresh->next = w->list[b];
    fresh->n = 0;
    w->list[b] = fresh;
    return 0;
}

/* appends entry to the list of block b; -1 when memory runs out */
static inline int push(struct work *w, uint64_t b, uint64_t entry)
{
    struct chunk *c = w->list[b];
    if (!c || c->n == CHUNK) {
        if (new_chunk(w, b))
            return -1;
        c = w->list[b];
    }
    c->entry[c->n++] = entry;
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

/* the key to each thread's struct work */
static pthread_key_t key;
static pthread_once_t key_once = PTHREAD_ONCE_INIT;
static int key_failed;

/* the key's destructor: frees a thread's work and all it holds, on that
   thread as it exits */
static void work_free(void *arg)
{
    struct work *w = arg;
    for (struct chunk *c = w->spare, *next; c; c = next) {
        next = c->next;
        free(c);
    }
    free(w->list);
    free(w);
}

/* fills the pattern: n = 2j + 1 has code[j] = 9a + 3b + c, where a, b and
   c are min(v_p(n), 2) for p = 3, 5 and 7. gcc inlines it, through
   thread_work, into sigma_fill: out of line it moved sigma_fill to a
   slower place (CHANGES.md) */
static void build_pattern(struct work *w)
{
    for (uint64_t code = 0; code < 27; code++) {
        uint64_t d = 1, s = 1;
        /* the digits of code, from the lowest, are c, b and a */
        for (uint64_t p = 7, e = code; p >= 3; p -= 2, e /= 3) {
            uint64_t pk = 1, sum = 1;
            for (uint64_t k = 0; k < e % 3; k++) {
                pk *= p;
                sum += pk;
            }
            d *= pk;
            s *= sum;
        }
        w->form[code].inv = inverse(d);
        w->form[code].sig = s;
    }
    for (uint64_t j = 0; j < PERIOD; j++) {
        uint64_t n = 2 * j + 1, code = 0;
        for (uint64_t p = 3; p <= 7; p += 2)
            code = 3 * code + (n % p == 0) + (n % (p * p) == 0);
        w->code[j] = code;
    }
}

static void make_key(void)
{
    key_failed = pthread_key_create(&key, work_free) != 0;
}

/* this thread's work, made empty on its first call; NULL when it cannot be */
static struct work *thread_work(void)
{
    struct work *w;
    if (pthread_once(&key_once, make_key) || key_failed)
        return NULL;
    if ((w = pthread_getspecific(key)))
        return w;
    if (!(w = calloc(1, sizeof *w)))
        return NULL;
    if (pthread_setspecific(key, w)) {
        free(w);
        return NULL;
    }
    build_pattern(w);
    return w;
}

/* Write each member slot i, ascending, to hits as the pair i, sigma(lo + 2i),
   and, unless sig is NULL, fill sig[0..m) with sigma(lo + 2i). hits has
   room for m pairs. primes is ascending and holds every odd prime up to
   sqrt(hi - 1), hi = lo + 2m; 2, the pattern's 3, 5 and 7, and the primes
   above sqrt(hi - 1) are skipped. Returns the number of members, or
   UINT64_MAX when memory runs out; the thread's scratch stays valid either
   way. */
uint64_t sigma_fill(uint64_t lo, uint64_t m, const uint64_t *primes, uint64_t np,
                    uint64_t *sig, uint64_t *hits)
{
    uint64_t top = lo + 2 * m - 1, blocks = (m + BLOCK - 1) / BLOCK;
    uint64_t next[BLOCK_PRIMES], cube[3];
    uint64_t k = 0, nb = 0, count = 0, i, j, res = (lo - 1) / 2 % PERIOD;
    struct work *w = thread_work();
    if (!w || grow_lists(w, blocks))
        return UINT64_MAX;
    int failed = 0;
    struct cell *cell = w->cell;

    /* the pattern takes out 3, 5 and 7, the cube pass their higher powers */
    for (j = 0; j < 3; j++) {
        uint64_t p = 3 + 2 * j;
        cube[j] = first_slot(lo, p * p * p);
    }
    while (k < np && primes[k] < 11)
        k++;
    const uint64_t *small = primes + k;
    /* a prime below BLOCK may hit a block many times; it carries its next
       slot, counted from the start of the current block */
    for (; k < np && primes[k] < BLOCK && primes[k] <= top / primes[k] && nb < BLOCK_PRIMES; k++)
        next[nb++] = first_slot(lo, primes[k]);
    /* a larger prime waits in the list of the block of its first hit */
    for (; !failed && k < np && primes[k] <= top / primes[k]; k++)
        if ((i = first_slot(lo, primes[k])) < m)
            failed = push(w, i / BLOCK, primes[k] << 32 | i % BLOCK) != 0;

    for (uint64_t b = 0; !failed && b < blocks; b++) {
        uint64_t b0 = b * BLOCK, len = m - b0 < BLOCK ? m - b0 : BLOCK;
        /* res is the next cell's residue j, walked in runs up to the end
           of the period */
        for (i = 0; i < len;) {
            uint64_t end = len - i < PERIOD - res ? len : i + PERIOD - res;
            for (; i < end; i++, res++) {
                const struct form *f = &w->form[w->code[res]];
                cell[i].cof = (lo + 2 * (b0 + i)) * f->inv;
                cell[i].sig = f->sig;
            }
            if (res == PERIOD)
                res = 0;
        }
        /* the cube pass: p^2 goes back into the cofactor and sigma(p^2) out
           of the sigma, then hit takes the whole power of p */
        for (j = 0; j < 3; j++) {
            uint64_t p = 3 + 2 * j, inv = inverse(p), undo = inverse(1 + p + p * p);
            for (i = cube[j]; i < len; i += p * p * p) {
                cell[i].cof *= p * p;
                cell[i].sig *= undo;
                hit(&cell[i], p, inv);
            }
            cube[j] = i - len;
        }
        for (j = 0; j < nb; j++) {
            uint64_t p = small[j], inv = inverse(p);
            for (i = next[j]; i < len; i += p)
                hit(&cell[i], p, inv);
            next[j] = i - len;
        }
        /* each listed prime hits its cell, then waits in the list of the
           block of its next hit, a later one: p >= len unless the input
           holds more than BLOCK_PRIMES primes below BLOCK, and then p takes
           all its hits in this block first */
        for (struct chunk *at = w->list[b]; !failed && at; at = at->next)
            for (j = 0; !failed && j < at->n; j++) {
                uint64_t p = at->entry[j] >> 32, inv = inverse(p);
                i = at->entry[j] & 0xffffffff;
                do
                    hit(&cell[i], p, inv);
                while ((i += p) < len);
                if (b0 + i < m)
                    failed = push(w, (b0 + i) / BLOCK, p << 32 | (b0 + i) % BLOCK) != 0;
            }
        to_spares(w, &w->list[b]);
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
    if (failed) {
        /* the lists are empty between calls */
        for (uint64_t b = 0; b < w->nlist; b++)
            to_spares(w, &w->list[b]);
        return UINT64_MAX;
    }
    return count;
}
