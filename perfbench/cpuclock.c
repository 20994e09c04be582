/* Processor time of the whole process: every domain and thread, user
   plus system, in seconds. On a guest kernel with paravirtual
   steal-time accounting this leaves out the time the hypervisor gave
   the processors to other guests. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value perfbench_process_cpu(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
