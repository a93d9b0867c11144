(** The paper's library implementations, written against the simulated
    ORC11 memory with the access modes the paper names, and instrumented to
    commit Yacovet events at their commit points:

    - {!Msqueue}: Michael-Scott queue, pure release-acquire (LATabs-hb);
      its [relaxed_publication] factory runs the same body with the
      enqueue's CASes relaxed — a deliberately broken regression fixture
      for the synchronization analyzer;
    - {!Msqueue_fences}: the same algorithm with relaxed accesses and
      explicit release/acquire fences — spec-equivalent;
    - {!Hwqueue}: weak Herlihy-Wing queue, rel enq / acq deq (LAThb);
    - {!Treiber}: relaxed Treiber stack (LAThist);
    - {!Exchanger}: single-slot exchanger with helping (Section 4.2);
    - {!Elimination}: elimination stack composing Treiber + exchanger with
      no new atomics (Section 4.1);
    - {!Spinlock}: test-and-set lock (substrate self-test / SC-mode
      clients);
    - {!Lockqueue}, {!Lockstack}: coarse-grained lock-based SC baselines —
      the "sufficient external synchronisation" limit of Section 3.1 that
      satisfies even the SC-strength spec;
    - {!Iface}: implementation-generic handles used by clients. *)

module Iface = Iface
module Msqueue = Msqueue
module Msqueue_fences = Msqueue_fences
module Hwqueue = Hwqueue
module Treiber = Treiber
module Exchanger = Exchanger
module Exchanger_array = Exchanger_array
module Elimination = Elimination
module Spinlock = Spinlock
module Lockqueue = Lockqueue
module Lockstack = Lockstack
module Chaselev = Chaselev
