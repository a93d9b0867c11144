open Compass_rmc
open Compass_event
open Compass_machine
open Compass_spec
open Compass_dstruct

(* The Message-Passing client of queues — the paper's Figure 1 and its
   verification sketch, Figure 3.

     enq(q, 41);            |           | while ([acq] flag == 0) {};
     enq(q, 42);            |  deq(q)   | deq(q)
     flag :=rel 1           |           | // returns 41 or 42, NOT empty

   The verified property: the right thread's dequeue can never return
   empty, because (1) at most one enqueue can have been consumed by the
   middle thread (the deqPerm(2) counting protocol of Figure 3), and
   (2) the release-acquire flag transfers the left thread's logical view
   {e1, e2} to the right thread, so both enqueues happen-before its
   dequeue, and QUEUE-EMPDEQ forbids the empty outcome.

   We check the property on every explored execution, check the deqPerm
   invariant (|G.so| <= 2), and additionally run the *exclusion analysis*:
   for each execution, would a hypothetical empty dequeue at the right
   thread's commit be ruled out by the spec?  Under LAThb (using the
   transferred logical view) it always is; under Cosmo-style LATso-abs
   (where the right thread has no so-chain to the enqueues) it never is —
   reproducing the paper's point that Cosmo's specs cannot verify this
   client (Section 1.1).

   The ablation is the same client with a relaxed flag
   ([~flag_write:Rlx ~flag_read:Rlx]): no view is transferred, the right
   thread may observe an empty queue, and the scenario counts those
   executions ([right_empty]) instead of failing them — zero would mean
   the ablation failed to exhibit the behaviour.  The right thread
   touches nothing non-atomic that the left thread wrote (that would
   race); the queue itself is all-atomic. *)

(* Atomic: the judge runs on every worker domain of a [--jobs] search. *)
type stats = {
  executions : int Atomic.t;
  right_got_41 : int Atomic.t;
  right_got_42 : int Atomic.t;
  right_empty : int Atomic.t;  (** must stay 0 with a rel/acq flag *)
  middle_empty : int Atomic.t;  (** fine: the middle thread may see empty *)
  excluded_hb : int Atomic.t;  (** executions where LAThb rules out empty *)
  excluded_so : int Atomic.t;  (** ... where LATso-abs does (never) *)
}

let fresh_stats () =
  {
    executions = Atomic.make 0;
    right_got_41 = Atomic.make 0;
    right_got_42 = Atomic.make 0;
    right_empty = Atomic.make 0;
    middle_empty = Atomic.make 0;
    excluded_hb = Atomic.make 0;
    excluded_so = Atomic.make 0;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>executions       %d@ right deq = 41   %d@ right deq = 42   %d@ \
     right deq = eps  %d@ middle deq = eps %d@ empty excluded by LAThb      \
     %d@ empty excluded by LATso-abs  %d@]"
    (Atomic.get s.executions) (Atomic.get s.right_got_41)
    (Atomic.get s.right_got_42) (Atomic.get s.right_empty)
    (Atomic.get s.middle_empty) (Atomic.get s.excluded_hb)
    (Atomic.get s.excluded_so)

(* Exclusion analysis.  [m0] is the set of enqueue events the right thread
   knows at its dequeue (its SeenQueue logical view): under hb-tracking it
   is {e1, e2} when the flag synchronises, and empty otherwise; under
   so-only tracking it is empty (the thread performed no prior queue
   operation).  The empty outcome is *excluded* if some known
   enqueue must still be undequeued: |m0| > number of dequeues that other
   threads could have committed (here at most 1, by deqPerm). *)
let excluded ~m0_size ~other_deqs = m0_size > other_deqs

let make ?(flag_write = Mode.Rel) ?(flag_read = Mode.Acq)
    (factory : Iface.queue_factory) (st : stats) =
  let synced = Mode.releases flag_write && Mode.acquires flag_read in
  let m0_hb = if synced then 2 else 0 in
  Harness.scenario
    ~name:
      ("mp[" ^ factory.q_name ^ ", flag "
      ^ Mode.access_to_string flag_write
      ^ "/"
      ^ Mode.access_to_string flag_read
      ^ "]")
    (fun m ->
      let q = factory.make_queue m ~name:"q" in
      let flag = Machine.alloc m ~name:"flag" ~init:(Value.Int 0) 1 in
      let left =
        Prog.returning_unit
          (Prog.bind (q.Iface.enq (Value.Int 41)) (fun () ->
               Prog.bind (q.Iface.enq (Value.Int 42)) (fun () ->
                   Prog.store ~site:"mp.flag.publish" flag (Value.Int 1)
                     flag_write)))
      in
      let middle = q.Iface.deq () in
      let right =
        Prog.bind
          (Prog.await ~site:"mp.flag.await" flag flag_read
             (Value.equal (Value.Int 1)))
          (fun _ -> q.Iface.deq ())
      in
      let judge vs =
        Atomic.incr st.executions;
        let middle_v = vs.(1) and right_v = vs.(2) in
        if Value.equal middle_v Value.Null then Atomic.incr st.middle_empty;
        (match right_v with
        | Value.Int 41 -> Atomic.incr st.right_got_41
        | Value.Int 42 -> Atomic.incr st.right_got_42
        | Value.Null -> Atomic.incr st.right_empty
        | _ -> ());
        (* Exclusion analysis: the right thread's knowledge. *)
        let other_deqs = if Value.equal middle_v Value.Null then 0 else 1 in
        if excluded ~m0_size:m0_hb ~other_deqs then Atomic.incr st.excluded_hb;
        if excluded ~m0_size:0 ~other_deqs then Atomic.incr st.excluded_so;
        (* The deqPerm(2) protocol invariant of Figure 3. *)
        let so_size = List.length (Graph.so q.Iface.q_graph) in
        if so_size > 2 then
          Explore.Violation
            (Printf.sprintf "deqPerm violated: %d successful dequeues" so_size)
        else if
          (* The verified property: with a release flag write and acquire
             flag read, the right dequeue is never empty.  Without them
             the empty outcome is the ablation's point, not a violation:
             the queue itself must stay consistent. *)
          synced && Value.equal right_v Value.Null
        then Explore.Violation "right thread's dequeue returned empty"
        else Libspec.graph_judge Libspec.Hb Libspec.queue q.Iface.q_graph vs
      in
      ([ left; middle; right ], judge))
