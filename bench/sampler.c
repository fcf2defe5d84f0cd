/* A statistical host profiler for one process, loaded with LD_PRELOAD.
 *
 * When SAMPLER_OUT is set, the library arms ITIMER_PROF and records the
 * interrupted program counter of every SIGPROF into a preallocated
 * array. The timer counts process CPU time, so samples land where the
 * host spends its cycles; the kernel's tick limits it to about 250
 * samples per CPU-second whatever interval is asked for. At exit it
 * writes SAMPLER_OUT.<pid>: the executable's path, its load base and
 * executable range (from dl_iterate_phdr), then one PC per line, in hex.
 * bench/profile.py builds this file, runs a command under it and maps
 * the PCs to symbols.
 *
 * The handler runs with SA_ONSTACK on a stack of its own: OCaml 5 runs
 * code on small heap-allocated fiber stacks, which a handler must not
 * grow. The alternate stack is per thread, so threads created after
 * start-up get theirs through the pthread_create wrapper below. The
 * handler only stores one word and bumps an atomic index.
 *
 * x86-64 Linux only: the PC comes from the REG_RIP slot of the signal's
 * ucontext.
 *
 *   cc -O2 -shared -fPIC -o sampler.so bench/sampler.c -ldl
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22) /* 4.6 CPU-hours at 250 Hz */
#define ALT_STACK_BYTES (64 * 1024)
#define INTERVAL_US 1000

static uintptr_t *samples;
static unsigned long taken; /* may exceed MAX_SAMPLES: the excess is dropped */
static int armed;

static void on_prof(int sig, siginfo_t *info, void *uc_) {
  (void)sig;
  (void)info;
  ucontext_t *uc = uc_;
  unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) samples[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

/* Give the calling thread its own signal stack. The mapping is never
   freed: one per thread, for the life of the process. */
static void install_alt_stack(void) {
  void *mem = mmap(NULL, ALT_STACK_BYTES, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return;
  stack_t ss = {.ss_sp = mem, .ss_size = ALT_STACK_BYTES, .ss_flags = 0};
  sigaltstack(&ss, NULL);
}

struct start {
  void *(*fn)(void *);
  void *arg;
};

static void *start_thread(void *p) {
  struct start s = *(struct start *)p;
  free(p);
  install_alt_stack();
  return s.fn(s.arg);
}

int pthread_create(pthread_t *thread, const pthread_attr_t *attr, void *(*fn)(void *), void *arg) {
  static int (*real)(pthread_t *, const pthread_attr_t *, void *(*)(void *), void *);
  if (!real) real = dlsym(RTLD_NEXT, "pthread_create");
  struct start *s = armed ? malloc(sizeof *s) : NULL;
  if (!s) return real(thread, attr, fn, arg);
  s->fn = fn;
  s->arg = arg;
  int rc = real(thread, attr, start_thread, s);
  if (rc != 0) free(s);
  return rc;
}

/* The first object dl_iterate_phdr reports is the executable. */
struct image {
  uintptr_t base, lo, hi;
};

static int find_image(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size;
  struct image *im = data;
  im->base = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
      uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
      if (im->hi == 0 || lo < im->lo) im->lo = lo;
      if (lo + ph->p_memsz > im->hi) im->hi = lo + ph->p_memsz;
    }
  }
  return 1;
}

__attribute__((constructor)) static void sampler_start(void) {
  if (!getenv("SAMPLER_OUT")) return;
  samples = mmap(NULL, MAX_SAMPLES * sizeof *samples, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (samples == MAP_FAILED) return;
  install_alt_stack();
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  armed = 1;
  struct itimerval it = {{0, INTERVAL_US}, {0, INTERVAL_US}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (!armed) return;
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  armed = 0;
  char path[4096], exe[4096];
  snprintf(path, sizeof path, "%s.%d", getenv("SAMPLER_OUT"), (int)getpid());
  ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[n > 0 ? n : 0] = '\0';
  struct image im = {0, 0, 0};
  dl_iterate_phdr(find_image, &im);
  FILE *f = fopen(path, "w");
  if (!f) return;
  unsigned long kept = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  fprintf(f, "exe %s\nbase %lx\ntext %lx %lx\ndropped %lu\n", exe, (unsigned long)im.base,
          (unsigned long)im.lo, (unsigned long)im.hi, taken - kept);
  for (unsigned long i = 0; i < kept; i++) fprintf(f, "%lx\n", (unsigned long)samples[i]);
  fclose(f);
}
