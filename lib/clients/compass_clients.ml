(** The paper's client verifications, as model-checked scenarios:

    - {!Mp}: the Message-Passing client of Figures 1 and 3, with the
      deqPerm counting protocol, the weak-flag ablation, and the
      LAThb-vs-LATso exclusion analysis;
    - {!Spsc_client}: the single-producer single-consumer client of
      Section 3.2 (end-to-end FIFO through arrays);
    - {!Pipeline}: a two-queue protocol client (the invariant-R composition
      of Section 2.2), mixing implementations;
    - {!Resource_exchange}: the resource-transfer exchanger client of
      Section 4.2, exercising view transfer through the race detector;
    - {!Es_compose}: the elimination-stack composition of Section 4, with
      the executable simulation check;
    - {!Mp_stack}: message passing through a stack (STACK-EMPPOP);
    - {!Strong_fifo}: Section 3.1's flexibility claim — a client lock
      recovers the strong FIFO condition (with a bare negative control);
    - {!Ws_client}: the work-stealing scheduler over the Chase-Lev deque
      (experiment E8), with the weak-fence ablation;
    - {!Litmus}: the substrate's litmus battery;
    - {!Experiments}: the E1-E8 paper-vs-measured battery;
    - {!Harness}: shared scenario plumbing and parametric workloads;
    - {!Specreg}: the populated spec registry — every structure bound to
      its spec, factory, default workloads and ladder expectations. *)

module Harness = Harness
module Litmus = Litmus
module Experiments = Experiments
module Mp = Mp
module Mp_stack = Mp_stack
module Strong_fifo = Strong_fifo
module Spsc_client = Spsc_client
module Pipeline = Pipeline
module Resource_exchange = Resource_exchange
module Es_compose = Es_compose
module Ws_client = Ws_client
module Specreg = Specreg
