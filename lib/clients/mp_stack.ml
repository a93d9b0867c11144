open Compass_rmc
open Compass_event
open Compass_machine
open Compass_spec
open Compass_dstruct

(* Message passing through a *stack*: the same shape as Figure 1, with
   STACK-EMPPOP playing the role of QUEUE-EMPDEQ.  The left thread pushes
   41 and 42 then raises the flag; the middle thread pops once; the right
   thread waits on the flag and pops — by the transferred logical view
   {e1, e2} and the emppop condition, it can never see an empty stack.

   This exercises the stack instance of the paper's spec pattern with the
   same client-side counting argument (one permission per potential
   pop). *)

type stats = {
  executions : int Atomic.t;
  right_got : int Atomic.t;
  right_empty : int Atomic.t;
}

let fresh_stats () =
  {
    executions = Atomic.make 0;
    right_got = Atomic.make 0;
    right_empty = Atomic.make 0;
  }

let make (factory : Iface.stack_factory) (st : stats) =
  Harness.scenario
    ~name:(Printf.sprintf "mp-stack[%s]" factory.s_name)
    (fun m ->
      let s = factory.make_stack m ~name:"s" in
      let flag = Machine.alloc m ~name:"flag" ~init:(Value.Int 0) 1 in
      let left =
        Prog.returning_unit
          (Prog.bind (s.Iface.push (Value.Int 41)) (fun () ->
               Prog.bind (s.Iface.push (Value.Int 42)) (fun () ->
                   Prog.store ~site:"mp_stack.flag.publish" flag (Value.Int 1)
                     Mode.Rel)))
      in
      let middle = s.Iface.pop () in
      let right =
        Prog.bind
          (Prog.await ~site:"mp_stack.flag.await" flag Mode.Acq
             (Value.equal (Value.Int 1)))
          (fun _ -> s.Iface.pop ())
      in
      let judge vs =
        Atomic.incr st.executions;
        (match vs.(2) with
        | Value.Int _ -> Atomic.incr st.right_got
        | Value.Null -> Atomic.incr st.right_empty
        | _ -> ());
        let so_size = List.length (Graph.so s.Iface.s_graph) in
        if so_size > 2 then
          Explore.Violation
            (Printf.sprintf "popPerm violated: %d successful pops" so_size)
        else if Value.equal vs.(2) Value.Null then
          Explore.Violation "right thread's pop returned empty"
        else Libspec.graph_judge Libspec.Hb Libspec.stack s.Iface.s_graph vs
      in
      ([ left; middle; right ], judge))
