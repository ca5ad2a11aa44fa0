/* heapsites: whose memory is it? Live heap bytes per allocation call stack,
 * as they stood when the process's live total was at its highest.
 *
 * An LD_PRELOAD shim over glibc malloc (which Rust's `System` allocator
 * calls), kept out of every build: the heap attribution tables in DESIGN
 * §4.1 were made with it and can be re-made with
 *
 *   gcc -O2 -shared -fPIC -o /tmp/heapsites.so ci/heapsites.c
 *   cargo build --release --bin repro        # the profile keeps debuginfo
 *   LD_PRELOAD=/tmp/heapsites.so HEAPSITES_TOP=25 \
 *       target/release/repro churn --servers 512 --seed 1 --jobs 1 >/dev/null
 *
 * The report goes to stderr at exit: requested bytes at the peak, then the
 * HEAPSITES_TOP (default 20) largest sites with their share and their call
 * stack, innermost frame first, inlined frames included and the standard
 * library's own left out (`addr2line` from binutils does the naming).
 * Every allocation, however small, is attributed to its own stack.
 * Bytes are as requested, so the total sits below the resident set by the
 * allocator's own slack and everything not on the heap. Expect the run to
 * take up to a few times as long.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define DEPTH 8        /* frames kept per site, after the shim's own two */
#define N_SITES 16384  /* distinct stacks (power of two) */
#define N_PTRS (1 << 23) /* live allocations (power of two) */

struct site {
    void *pc[DEPTH];
    int n;
    int64_t live, at_peak;
};
struct slot {
    void *p;
    uint32_t size, site; /* size 0 = never used; p 0 with size != 0 = tombstone */
};

static struct site sites[N_SITES];
static struct slot ptrs[N_PTRS];
static int64_t live, peak, snap;
static pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
static __thread int inside; /* the shim's own allocations are not traced */

static uint32_t site_of(void) {
    void *pc[DEPTH + 2] = {0};
    int n = backtrace(pc, DEPTH + 2) - 2;
    uint64_t h = 1469598103934665603ull;
    for (int i = 2; i < n + 2; i++)
        h = (h ^ (uintptr_t)pc[i]) * 1099511628211ull;
    for (uint32_t i = h & (N_SITES - 1);; i = (i + 1) & (N_SITES - 1)) {
        struct site *s = &sites[i];
        if (s->n == 0) {
            s->n = n > 0 ? n : 1;
            memcpy(s->pc, pc + 2, sizeof s->pc);
            return i;
        }
        if (s->n == n && memcmp(s->pc, pc + 2, n * sizeof(void *)) == 0)
            return i;
    }
}

static struct slot *slot_of(void *p, int insert) {
    struct slot *grave = NULL;
    for (size_t i = ((uintptr_t)p >> 4) * 11400714819323198485ull >> 41;; i = (i + 1) & (N_PTRS - 1)) {
        struct slot *s = &ptrs[i];
        if (s->p == p)
            return s;
        if (s->size == 0)
            return insert ? (grave ? grave : s) : NULL;
        if (s->p == NULL && grave == NULL)
            grave = s;
    }
}

/* The books: `record` and `forget` run with `mu` held and `inside` set. */
static void record(void *p, size_t size) {
    if (p == NULL)
        return;
    struct slot *s = slot_of(p, 1);
    s->p = p;
    s->size = size ? size : 1;
    s->site = site_of();
    sites[s->site].live += s->size;
    live += s->size;
    if (live > peak)
        peak = live;
    if (live > snap + (1 << 20)) { /* re-take the picture every MiB of new peak */
        snap = live;
        for (int i = 0; i < N_SITES; i++)
            sites[i].at_peak = sites[i].live;
    }
}

static void forget(void *p) {
    struct slot *s = p ? slot_of(p, 0) : NULL;
    if (s) {
        sites[s->site].live -= s->size;
        live -= s->size;
        s->p = NULL; /* tombstone: size stays non-zero */
    }
}

static int enter(void) {
    if (inside)
        return 0;
    inside = 1;
    pthread_mutex_lock(&mu);
    return 1;
}

static void leave(void) {
    pthread_mutex_unlock(&mu);
    inside = 0;
}

static void note_alloc(void *p, size_t size) {
    if (p != NULL && enter()) {
        record(p, size);
        leave();
    }
}

static void note_free(void *p) {
    if (p != NULL && enter()) {
        forget(p);
        leave();
    }
}

void *malloc(size_t n) {
    void *p = __libc_malloc(n);
    note_alloc(p, n);
    return p;
}
void *calloc(size_t a, size_t b) {
    if (b != 0 && a > SIZE_MAX / b) { /* a*b would wrap: refuse, as glibc does */
        errno = ENOMEM;
        return NULL;
    }
    void *p = __libc_calloc(a, b);
    note_alloc(p, a * b);
    return p;
}
void *realloc(void *old, size_t n) {
    if (!enter())
        return __libc_realloc(old, n);
    /* Under the lock, so no other thread can be handed `old`'s address
     * between the move and the books catching up. */
    void *p = __libc_realloc(old, n);
    if (p != NULL || n == 0) { /* on failure `old` is still live */
        forget(old);
        record(p, n);
    }
    leave();
    return p;
}
void *memalign(size_t al, size_t n) {
    void *p = __libc_memalign(al, n);
    note_alloc(p, n);
    return p;
}
void *aligned_alloc(size_t al, size_t n) { return memalign(al, n); }
int posix_memalign(void **out, size_t al, size_t n) {
    *out = memalign(al, n);
    return *out ? 0 : ENOMEM;
}
void free(void *p) {
    note_free(p);
    __libc_free(p);
}

static int by_peak(const void *a, const void *b) {
    int64_t x = (*(struct site *const *)a)->at_peak, y = (*(struct site *const *)b)->at_peak;
    return (x < y) - (x > y);
}

__attribute__((destructor)) static void report(void) {
    inside = 1;
    unsetenv("LD_PRELOAD"); /* addr2line runs untraced */
    const char *top_env = getenv("HEAPSITES_TOP");
    int top = top_env ? atoi(top_env) : 20, n = 0;
    static struct site *order[N_SITES];
    for (int i = 0; i < N_SITES; i++)
        if (sites[i].at_peak > 0)
            order[n++] = &sites[i];
    qsort(order, n, sizeof order[0], by_peak);
    fprintf(stderr, "[heapsites] peak %.1f MB requested (picture taken at %.1f MB), %d live sites\n",
            peak / 1048576.0, snap / 1048576.0, n);
    for (int k = 0; k < n && k < top; k++) {
        struct site *s = order[k];
        fprintf(stderr, "[heapsites] #%d  %.1f MB  %.1f%%\n", k + 1, s->at_peak / 1048576.0,
                100.0 * s->at_peak / snap);
        char cmd[4096];
        int len = snprintf(cmd, sizeof cmd, "addr2line -f -C -i -s -p -e /proc/%d/exe", (int)getpid());
        for (int i = 0; i < s->n; i++) {
            Dl_info info;
            /* A return address names the instruction after the call. */
            uintptr_t pc = (uintptr_t)s->pc[i] - 1;
            if (dladdr(s->pc[i], &info) && info.dli_fbase)
                pc -= (uintptr_t)info.dli_fbase;
            len += snprintf(cmd + len, sizeof cmd - len, " %#lx", (unsigned long)pc);
        }
        snprintf(cmd + len, sizeof cmd - len,
                 " | sed -E -e '/^( \\(inlined by\\) )?<?(alloc|core|std|hashbrown)::/d' -e 's/^/    /' >&2");
        if (system(cmd) != 0)
            fprintf(stderr, "    (addr2line failed)\n");
    }
}
