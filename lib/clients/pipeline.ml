open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct
open Prog.Syntax

(* A two-queue pipeline client — the "protocol governing multiple abstract
   states" of Section 2.2: an invariant R ties two queues together.

     source: enq(q1, v_i) for i < n
     stage:  v := deq(q1); enq(q2, f v)   (repeated)
     sink:   w := deq(q2)                 (repeated; retry on empty)

   Here R(vs1, vs2) says the pipeline preserves order and applies
   [f v = v + 100] exactly once: the sink must observe f(v_1), f(v_2), ...
   in order.  The two queues may be *different implementations* — the
   modularity the paper's LAT specs buy. *)

type stats = { executions : int Atomic.t }

let fresh_stats () = { executions = Atomic.make 0 }

let make ?(n = 2) ?(retries = 24)
    (f1 : Iface.queue_factory) (f2 : Iface.queue_factory)
    (st : stats) =
  Harness.scenario
    ~name:(Printf.sprintf "pipeline[%s -> %s, n=%d]" f1.q_name f2.q_name n)
    (fun m ->
      let q1 = f1.make_queue m ~name:"q1" in
      let q2 = f2.make_queue m ~name:"q2" in
      let source =
        Prog.returning_unit
          (Prog.for_ 1 n (fun i -> q1.Iface.enq (Value.Int i)))
      in
      let deq_retry q what =
        Prog.with_fuel ~fuel:retries ~what (fun () ->
            let* v = q.Iface.deq () in
            if Value.equal v Value.Null then Prog.return None
            else Prog.return (Some v))
      in
      let stage =
        Prog.returning_unit
          (Prog.for_ 1 n (fun _ ->
               let* v = deq_retry q1 "pipeline-stage" in
               q2.Iface.enq (Value.Int (Value.to_int_exn v + 100))))
      in
      let sink =
        let* ws =
          Prog.map_list (fun _ -> deq_retry q2 "pipeline-sink")
            (List.init n (fun i -> i))
        in
        Prog.return
          (Value.Int
             (List.fold_left (fun acc v -> (acc * 1000) + Value.to_int_exn v) 0 ws))
      in
      let judge vs =
        Atomic.incr st.executions;
        let expected =
          List.fold_left (fun acc i -> (acc * 1000) + i + 100) 0
            (List.init n (fun i -> i + 1))
        in
        if not (Value.equal vs.(2) (Value.Int expected)) then
          Explore.Violation
            (Format.asprintf "pipeline order broken: sink got %a, expected %d"
               Value.pp vs.(2) expected)
        else
          Libspec.(
            graph_judge Hb queue q1.Iface.q_graph
            &&& graph_judge Hb queue q2.Iface.q_graph)
            vs
      in
      ([ source; stage; sink ], judge))
