open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct

(* Scenario-building helpers shared by all client verifications and
   experiments: wrap the machine outcome handling, attach per-execution
   consistency checks, and provide parametric workloads. *)

let vi n = Value.Int n

(* Standard outcome plumbing: faults are violations, blocked/bounded
   executions are discarded (spin fuel, capacity), finished executions go
   to the judge. *)
let scenario ~name build =
  {
    Explore.name;
    build =
      (fun m ->
        let threads, judge = build m in
        Machine.spawn m threads;
        fun outcome ->
          match outcome with
          | Machine.Finished vs -> judge vs
          | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
          | Machine.Blocked s -> Explore.Discard s
          | Machine.Bounded -> Explore.Discard "bounded"
          (* The explorer intercepts pruned runs before the judge;
             defensive only. *)
          | Machine.Pruned -> Explore.Discard "pruned");
  }

(* -- parametric workloads ----------------------------------------------------

   [n] enqueuer threads each enqueue [ops] distinct values; [d] dequeuer
   threads each dequeue [ops] times (accepting empties).  Values encode
   (thread, index) so all enqueued values are distinct — required for
   unambiguous so matching in the checkers. *)

let val_of ~tid ~i = vi (((tid + 1) * 100) + i)

let queue_workload ?(style = Libspec.Hb) (factory : Iface.queue_factory)
    ~enqers ~deqers ~ops () =
  scenario ~name:(Printf.sprintf "%s[%dx%d enq, %d deq]" factory.q_name enqers ops deqers)
    (fun m ->
      let q = factory.make_queue m ~name:"q" in
      let enq_thread tid =
        Prog.returning_unit
          (Prog.for_ 0 (ops - 1) (fun i -> q.Iface.enq (val_of ~tid ~i)))
      in
      let deq_thread _tid =
        Prog.returning_unit
          (Prog.for_ 0 (ops - 1) (fun _ ->
               Prog.bind (q.Iface.deq ()) (fun _ -> Prog.return ())))
      in
      let threads =
        List.init enqers enq_thread @ List.init deqers deq_thread
      in
      (threads, Libspec.graph_judge style Libspec.queue q.Iface.q_graph))

let stack_workload ?(style = Libspec.Hb) (factory : Iface.stack_factory)
    ~pushers ~poppers ~ops () =
  scenario
    ~name:(Printf.sprintf "%s[%dx%d push, %d pop]" factory.s_name pushers ops poppers)
    (fun m ->
      let s = factory.make_stack m ~name:"s" in
      let push_thread tid =
        Prog.returning_unit
          (Prog.for_ 0 (ops - 1) (fun i -> s.Iface.push (val_of ~tid ~i)))
      in
      let pop_thread _tid =
        Prog.returning_unit
          (Prog.for_ 0 (ops - 1) (fun _ ->
               Prog.bind (s.Iface.pop ()) (fun _ -> Prog.return ())))
      in
      let threads =
        List.init pushers push_thread @ List.init poppers pop_thread
      in
      (threads, Libspec.graph_judge style Libspec.stack s.Iface.s_graph))

(* Mixed workload: every thread both pushes and pops. *)
let stack_mixed ?(style = Libspec.Hb) (factory : Iface.stack_factory) ~threads
    ~ops () =
  scenario ~name:(Printf.sprintf "%s[mixed %dx%d]" factory.s_name threads ops)
    (fun m ->
      let s = factory.make_stack m ~name:"s" in
      let thread tid =
        Prog.returning_unit
          (Prog.for_ 0 (ops - 1) (fun i ->
               Prog.bind (s.Iface.push (val_of ~tid ~i)) (fun () ->
                   Prog.bind (s.Iface.pop ()) (fun _ -> Prog.return ()))))
      in
      ( List.init threads thread,
        Libspec.graph_judge style Libspec.stack s.Iface.s_graph ))

(* Exchanger workload: [threads] threads, each exchanging one distinct
   value; judge checks ExchangerConsistent plus pairwise value swaps.
   [impl] picks the implementation (single slot by default; pass
   [Exchanger_array.instantiate ~slots:k] for the array). *)
let exchanger_workload ?(impl = fun m ~name -> Exchanger.instantiate m ~name)
    ~threads () =
  scenario ~name:(Printf.sprintf "exchanger[%d]" threads)
    (fun m ->
      let x = impl m ~name:"x" in
      let thread tid = x.Iface.exchange (val_of ~tid ~i:0) in
      let judge vs =
        match
          Libspec.first_violation (Exchanger_spec.consistent x.Iface.x_graph)
        with
        | Explore.Pass ->
            (* A thread's return value, if non-bottom, must be some other
               thread's input, and the swaps must pair up. *)
            let n = Array.length vs in
            let ok = ref true in
            Array.iteri
              (fun i v ->
                if not (Value.equal v Value.Null) then begin
                  let j =
                    match v with
                    | Value.Int enc -> (enc / 100) - 1
                    | _ -> -1
                  in
                  if j < 0 || j >= n || j = i then ok := false
                  else if not (Value.equal vs.(j) (val_of ~tid:i ~i:0)) then
                    ok := false
                end)
              vs;
            if !ok then Explore.Pass
            else Explore.Violation "exchange results do not pair up"
        | v -> v
      in
      (List.init threads thread, judge))
