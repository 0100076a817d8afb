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
      from block to block; the kernel makes them itself, once per thread;
   4. the larger primes, which hit a block at most once each: each waits
      in the list of the block of its next hit, and when that block comes
      it takes its hit and moves on to the list of the block after, or,
      when its next hit lies past the segment, to the pending list, so
      each prime has one entry in one list;
   5. one pass over the cells: what is left of the cofactor is 1 or one
      prime q > sqrt(hi - 1), which contributes q + 1, taken without a
      branch; the slot's sigma is tested for membership, and a member's
      slot and sigma go out as a pair. The sigma of every slot is written
      out too, unless the caller passes no array for it (a search reads
      sigma only at members). This pass is the kernel's only membership
      scan.

   A call continues the sieve of the same thread's last call when it
   starts where that call ended, lo == at: the slots of steps 2 and 3 and
   the pending list carry over, as the slots carry from block to block
   within a call (the bucket sieve of the paper above, and primesieve's).
   Such a call hands each pending prime to the list of the block of its
   next hit, or leaves it pending with its offset moved on by the call's
   length. Every call then takes the primes up to sqrt(hi - 1) that it
   does not hold yet: those below BLOCK from its own table, and those of
   the input from BLOCK up above the largest one it holds, found by value,
   so any table that holds them serves. A call at any other lo, or a call
   that fails, resets the position: the next call starts from nothing.

   Division by p is a multiplication by its inverse modulo 2^64 (Granlund
   and Montgomery, PLDI 1994): c * inv is c / p exactly when p divides c,
   and c * inv * p overflows otherwise. All value arithmetic is in
   uint64_t, whose overflow is defined; sieve.py keeps n below 2^51, so
   every true value (n, 2n, sigma(n) < 4n) stays below 2^53.

   sigma_fill's scratch, the block of cells, the fixed heads of the
   per-block lists (4 KiB) and the pending list, the sieve's position (the
   table of the primes from 11 to below BLOCK with their inverses and next
   slots, ~84 KiB) and the pattern's two tables (a code byte per residue
   and the 27 forms, ~11.4 KiB), is a struct work per thread, found
   through one pthread key: a thread's first call makes it and builds the
   pattern and the primes below BLOCK, and the key's
   destructor frees it as the thread exits, so it is never freed under a
   running call (a thread still running at process exit leaves it to the
   operating system). The lists are built from chunks of 8 KiB, each of
   which goes back to a spare list as soon as its entries have moved on, so
   at any span they hold about 8 bytes per prime from BLOCK to sqrt(hi - 1)
   plus one partial chunk per block; between calls all those entries wait
   in the pending list. The work keeps its chunks between calls and takes a
   new one only when its spares run out, so once a thread has sieved its
   largest segment a call allocates nothing. The kernel's only static state
   is the key, and calls on different threads share nothing: ctypes
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
/* the odd primes from 11 to below BLOCK, pi(32768) - 4: the small primes,
   which the kernel makes itself */
#define BLOCK_PRIMES 3508
/* the most blocks of a call: MAX_SPAN / BLOCK, MAX_SPAN as in sieve.py */
#define MAX_BLOCKS 512
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
   slot in that block of p's next hit; in the pending list, p << 32 | the
   offset of p's next hit from the next call's lo, which is below p */
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
   the spare chunks, the sieve's position, the small primes with their
   inverses, the pattern (the code of each residue and the form of each
   code) and the cells of one block. The position is what a call starting
   at lo == at continues: the first nsmall small primes, each with its
   next slot, the next slots of 27, 125 and 343, and the pending list of
   the large primes; all slots count from at, and last is the largest
   large prime held, or BLOCK when there is none */
struct work {
    struct chunk *list[MAX_BLOCKS];
    struct chunk *spare;
    struct chunk *pending;
    uint64_t at, last, nsmall, cube[3];
    uint64_t small[BLOCK_PRIMES], inv[BLOCK_PRIMES], next[BLOCK_PRIMES];
    struct form form[27];
    unsigned char code[PERIOD];
    struct cell cell[BLOCK];
};

/* hands chunk c back to the spares; returns the chunk after it */
static inline struct chunk *give_back(struct work *w, struct chunk *c)
{
    struct chunk *next = c->next;
    c->next = w->spare;
    w->spare = c;
    return next;
}

/* empties a list, handing its chunks back to the spares */
static void to_spares(struct work *w, struct chunk **list)
{
    for (struct chunk *c = *list; c;)
        c = give_back(w, c);
    *list = NULL;
}

/* a new first chunk for list, a spare one if there is one; -1 when memory
   runs out. Out of line: inlined into the pushes in sigma_fill, it slowed
   the small-prime loop there by ~5% near 10^8 */
static __attribute__((noinline)) int new_chunk(struct work *w, struct chunk **list)
{
    struct chunk *fresh = w->spare;
    if (fresh)
        w->spare = fresh->next;
    else if (!(fresh = malloc(sizeof *fresh)))
        return -1;
    fresh->next = *list;
    fresh->n = 0;
    *list = fresh;
    return 0;
}

/* appends entry to list; -1 when memory runs out */
static inline int push(struct work *w, struct chunk **list, uint64_t entry)
{
    struct chunk *c = *list;
    if (!c || c->n == CHUNK) {
        if (new_chunk(w, list))
            return -1;
        c = *list;
    }
    c->entry[c->n++] = entry;
    return 0;
}

/* the large prime p hits slot i of a call of m slots next: it waits in the
   list of that slot's block or, past the call's end, in the pending list;
   -1 when memory runs out */
static inline int wait_at(struct work *w, uint64_t p, uint64_t i, uint64_t m)
{
    if (i < m)
        return push(w, &w->list[i / BLOCK], p << 32 | i % BLOCK);
    return push(w, &w->pending, p << 32 | (i - m));
}

/* forgets the sieve's position, so that no call continues it; the primes
   below BLOCK never come from the input */
static void reset(struct work *w)
{
    to_spares(w, &w->pending);
    w->at = 0;
    w->last = BLOCK;
    w->nsmall = 0;
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
    to_spares(w, &w->pending);
    for (struct chunk *c = w->spare, *next; c; c = next) {
        next = c->next;
        free(c);
    }
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

/* fills the small primes and their inverses: a sieve of Eratosthenes over
   the odd numbers below BLOCK, whose flags borrow the cells, still zero
   from calloc; the first call overwrites them. Out of line, so that it
   stays out of sigma_fill, into which thread_work is inlined */
static __attribute__((noinline)) void build_primes(struct work *w)
{
    unsigned char *composite = (unsigned char *)w->cell;
    uint64_t k = 0;
    for (uint64_t p = 3; p < BLOCK; p += 2)
        if (!composite[p / 2]) {
            for (uint64_t q = p * p; q < BLOCK; q += 2 * p)
                composite[q / 2] = 1;
            if (p >= 11) {
                w->small[k] = p;
                w->inv[k++] = inverse(p);
            }
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
    build_primes(w);
    return w;
}

/* moves the sieve on to a call of m slots that continues it: each pending
   prime waits for its block of the call, or on past its end. A drained
   chunk goes back to the spares at once, so that no entry is held twice.
   -1 when memory runs out. Out of line, as is take_primes: each runs once
   per call, and inlined into sigma_fill they made its calls 4-7% slower
   (CHANGES.md) */
static __attribute__((noinline)) int resume(struct work *w, uint64_t m)
{
    int failed = 0;
    struct chunk *c = w->pending;
    for (w->pending = NULL; !failed && c; c = give_back(w, c))
        for (uint64_t j = 0; !failed && j < c->n; j++)
            failed = wait_at(w, c->entry[j] >> 32, c->entry[j] & 0xffffffff, m);
    to_spares(w, &c);
    return failed;
}

/* takes the sieving primes of a call of m slots from lo that it does not
   hold yet: the next small primes, each with its next slot, and the primes
   of the input above the last one held, from BLOCK up, found by value, so
   that any table that holds them serves; each waits for the block of its
   next hit. -1 when memory runs out */
static __attribute__((noinline)) int take_primes(struct work *w, uint64_t lo, uint64_t m,
                                                 const uint64_t *primes, uint64_t np)
{
    uint64_t k = 0, top = lo + 2 * m - 1, s;
    for (s = w->nsmall; s < BLOCK_PRIMES && w->small[s] <= top / w->small[s]; s++)
        w->next[s] = first_slot(lo, w->small[s]);
    w->nsmall = s;
    for (uint64_t end = np; k < end;) {
        uint64_t mid = k + (end - k) / 2;
        if (primes[mid] <= w->last)
            k = mid + 1;
        else
            end = mid;
    }
    for (; k < np && primes[k] <= top / primes[k]; k++)
        if (wait_at(w, w->last = primes[k], first_slot(lo, primes[k]), m))
            return -1;
    return 0;
}

/* Write each member slot i, ascending, to hits as the pair i, sigma(lo + 2i),
   and, unless sig is NULL, fill sig[0..m) with sigma(lo + 2i). hits has
   room for m pairs. primes is ascending and holds every prime from BLOCK up
   to sqrt(hi - 1), hi = lo + 2m; its primes below BLOCK or above
   sqrt(hi - 1) are skipped. A call whose lo is the hi of this thread's
   last successful call continues its sieve and takes from primes only
   those above the ones it holds. Returns the number of members, or
   UINT64_MAX when memory runs out or m exceeds MAX_BLOCKS blocks, which
   resets the thread's position; the thread's scratch stays valid either
   way. */
uint64_t sigma_fill(uint64_t lo, uint64_t m, const uint64_t *primes, uint64_t np,
                    uint64_t *sig, uint64_t *hits)
{
    uint64_t blocks = (m + BLOCK - 1) / BLOCK;
    uint64_t count = 0, i, j, res = (lo - 1) / 2 % PERIOD;
    struct work *w = thread_work();
    if (!w)
        return UINT64_MAX;
    int failed = m > MAX_BLOCKS * BLOCK;
    struct cell *cell = w->cell;

    if (failed || lo != w->at) {
        /* a fresh start, holding no prime: the pattern takes out 3, 5 and 7,
           the cube pass their higher powers */
        reset(w);
        for (j = 0; j < 3; j++) {
            uint64_t p = 3 + 2 * j;
            w->cube[j] = first_slot(lo, p * p * p);
        }
    } else
        failed = resume(w, m);
    failed = failed || take_primes(w, lo, m, primes, np);

    uint64_t nsmall = w->nsmall;
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
            for (i = w->cube[j]; i < len; i += p * p * p) {
                cell[i].cof *= p * p;
                cell[i].sig *= undo;
                hit(&cell[i], p, inv);
            }
            w->cube[j] = i - len;
        }
        for (j = 0; j < nsmall; j++) {
            uint64_t p = w->small[j], inv = w->inv[j];
            for (i = w->next[j]; i < len; i += p)
                hit(&cell[i], p, inv);
            w->next[j] = i - len;
        }
        /* each listed prime, above BLOCK, hits its cell once, then waits
           for the block of its next hit, a later one or one past the call.
           Each chunk goes back to the spares once it is done */
        struct chunk *listed = w->list[b];
        for (w->list[b] = NULL; !failed && listed; listed = give_back(w, listed))
            for (j = 0; !failed && j < listed->n; j++) {
                uint64_t p = listed->entry[j] >> 32;
                i = listed->entry[j] & 0xffffffff;
                hit(&cell[i], p, inverse(p));
                failed = wait_at(w, p, b0 + i + p, m);
            }
        to_spares(w, &listed);
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
        /* the block lists are empty between calls */
        for (uint64_t b = 0; b < MAX_BLOCKS; b++)
            to_spares(w, &w->list[b]);
        reset(w);
        return UINT64_MAX;
    }
    w->at = lo + 2 * m;
    return count;
}
