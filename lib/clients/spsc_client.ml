open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct
open Prog.Syntax

(* The single-producer single-consumer client of Section 3.2.

     producer(q, a_p, 0, n)  ||  consumer(q, a_c, 0, n)

   The producer reads the array [a_p] and enqueues its elements in index
   order; the consumer dequeues [n] elements (retrying on empty) and writes
   them to [a_c] in dequeue order.  The expected end-to-end property is
   FIFO: [a_c] ends up equal to [a_p].  The paper derives this from the
   LAThb specs by building the SPSC protocol; we check it directly on
   every explored execution — including that the consumer's non-atomic
   writes to [a_c] and the final (joined) read-back are race-free, which
   exercises the view machinery end to end. *)

type stats = { executions : int Atomic.t; empties : int Atomic.t }

let fresh_stats () = { executions = Atomic.make 0; empties = Atomic.make 0 }

let make ?(n = 3) ?(retries = 16)
    (factory : Iface.queue_factory) (st : stats) =
  Harness.scenario
    ~name:(Printf.sprintf "spsc[%s, n=%d]" factory.q_name n)
    (fun m ->
      let q = factory.make_queue m ~name:"q" in
      let a_p = Machine.alloc m ~name:"a_p" n in
      let a_c = Machine.alloc m ~name:"a_c" ~init:(Value.Int 0) n in
      (* Fill the producer's array during setup. *)
      ignore
        (Machine.solo m
           (Prog.returning_unit
              (Prog.for_ 0 (n - 1) (fun i ->
                   Prog.store (Loc.shift a_p i) (Value.Int (i + 1)) Mode.Na))));
      let producer =
        Prog.returning_unit
          (Prog.for_ 0 (n - 1) (fun i ->
               let* v = Prog.load (Loc.shift a_p i) Mode.Na in
               q.Iface.enq v))
      in
      let consumer =
        Prog.returning_unit
          (Prog.for_ 0 (n - 1) (fun i ->
               let* v =
                 Prog.with_fuel ~fuel:retries ~what:"spsc-consume" (fun () ->
                     let* v = q.Iface.deq () in
                     if Value.equal v Value.Null then begin
                       Atomic.incr st.empties;
                       Prog.return None
                     end
                     else Prog.return (Some v))
               in
               Prog.store (Loc.shift a_c i) v Mode.Na))
      in
      let judge _vs =
        Atomic.incr st.executions;
        (* Join views and read back both arrays non-atomically. *)
        let read arr =
          Machine.solo m
            (let* xs =
               Prog.map_list (fun i -> Prog.load (Loc.shift arr i) Mode.Na)
                 (List.init n (fun i -> i))
             in
             Prog.return
               (Value.Int
                  (List.fold_left
                     (fun acc v -> (acc * 10) + Value.to_int_exn v)
                     0 xs)))
        in
        Machine.join_views m;
        let vp = read a_p and vc = read a_c in
        if Value.equal vp vc then
          (* LAThb, plus the *derived* SPSC spec of
             Section 3.2: strict FIFO and counted empty dequeues. *)
          Libspec.(
            graph_judge Hb queue q.Iface.q_graph
            &&& fun _ -> first_violation (Spsc_spec.consistent q.Iface.q_graph))
            _vs
        else
          Explore.Violation
            (Format.asprintf "FIFO broken: produced %a, consumed %a" Value.pp
               vp Value.pp vc)
      in
      ([ producer; consumer ], judge))
