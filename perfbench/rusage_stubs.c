/* wait4(2), which the OCaml Unix library does not bind: it reaps a
   child and reports the child's own peak resident set. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perfbench_wait4 pid = (exit code, or -1 if a signal ended it;
   peak RSS in KiB) */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, err = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  err = errno;
  caml_leave_blocking_section();
  if (r < 0) {
    errno = err;
    caml_failwith("wait4");
  }
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
