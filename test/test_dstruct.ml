open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct
open Compass_clients
open Prog.Syntax
open Helpers

(* Data-structure verifications: bounded-exhaustive and random exploration
   with the spec checkers attached — the testing counterpart of the
   paper's per-implementation proofs. *)

let dfs ?(max_execs = 30_000) sc = Explore.dfs ~max_execs sc
let rand ?(execs = 2_000) sc = Explore.random ~execs ~seed:7 sc

let check_ok name (r : Explore.report) =
  Alcotest.(check (list string))
    (name ^ " violations")
    []
    (List.map (fun (f : Explore.failure) -> f.Explore.message) r.Explore.violations);
  Alcotest.(check bool) (name ^ " ran") true (r.Explore.executions > 0)

(* -- sequential sanity (solo execution) -------------------------------------- *)

let test_msqueue_sequential () =
  let m = Machine.create () in
  let t = Msqueue.create m ~name:"q" in
  let r =
    Machine.solo m
      (let* () = Msqueue.enq t (vi 1) in
       let* () = Msqueue.enq t (vi 2) in
       let* a = Msqueue.deq t in
       let* b = Msqueue.deq t in
       let* c = Msqueue.deq t in
       Prog.return
         (vi
            ((100 * Value.to_int_exn a)
            + (10 * Value.to_int_exn b)
            + (match c with Value.Null -> 9 | _ -> 0))))
  in
  Alcotest.(check value) "FIFO + empty" (vi 129) r;
  Alcotest.(check (list string)) "graph consistent" []
    (List.map
       (fun (c : Check.violation) -> c.Check.cond)
       (Queue_spec.consistent (Msqueue.graph t)))

let test_hwqueue_sequential () =
  let m = Machine.create () in
  let t = Hwqueue.create m ~name:"q" in
  let r =
    Machine.solo m
      (let* () = Hwqueue.enq t (vi 1) in
       let* () = Hwqueue.enq t (vi 2) in
       let* a = Hwqueue.deq t in
       let* b = Hwqueue.deq t in
       let* c = Hwqueue.deq t in
       Prog.return
         (vi
            ((100 * Value.to_int_exn a)
            + (10 * Value.to_int_exn b)
            + (match c with Value.Null -> 9 | _ -> 0))))
  in
  Alcotest.(check value) "FIFO + empty" (vi 129) r

let test_treiber_sequential () =
  let m = Machine.create () in
  let t = Treiber.create m ~name:"s" in
  let r =
    Machine.solo m
      (let* () = Treiber.push t (vi 1) in
       let* () = Treiber.push t (vi 2) in
       let* a = Treiber.pop t in
       let* b = Treiber.pop t in
       let* c = Treiber.pop t in
       Prog.return
         (vi
            ((100 * Value.to_int_exn a)
            + (10 * Value.to_int_exn b)
            + (match c with Value.Null -> 9 | _ -> 0))))
  in
  Alcotest.(check value) "LIFO + empty" (vi 219) r;
  Alcotest.(check bool) "LAThist holds" true
    (Libspec.check Libspec.Hist Libspec.stack (Treiber.graph t) = [])

let test_elimination_sequential () =
  let m = Machine.create () in
  let t = Elimination.create m ~name:"es" in
  let r =
    Machine.solo m
      (let* () = Elimination.push t (vi 5) in
       let* a = Elimination.pop t in
       let* b = Elimination.pop t in
       Prog.return
         (vi ((10 * Value.to_int_exn a) + (match b with Value.Null -> 9 | _ -> 0))))
  in
  Alcotest.(check value) "push/pop/empty" (vi 59) r

let test_hw_capacity_discards () =
  let m = Machine.create () in
  let t = Hwqueue.create ~capacity:1 m ~name:"q" in
  Machine.spawn m
    [
      Prog.returning_unit
        (let* () = Hwqueue.enq t (vi 1) in
         Hwqueue.enq t (vi 2));
    ];
  match Machine.run m (Oracle.fresh_latest ()) with
  | Machine.Blocked _ -> ()
  | o -> Alcotest.failf "expected blocked on capacity, got %a" Machine.pp_outcome o

(* -- concurrent consistency, exhaustive ---------------------------------------- *)

let test_msqueue_fences_sequential () =
  let m = Machine.create () in
  let t = Msqueue_fences.create m ~name:"q" in
  let r =
    Machine.solo m
      (let* () = Msqueue_fences.enq t (vi 1) in
       let* () = Msqueue_fences.enq t (vi 2) in
       let* a = Msqueue_fences.deq t in
       let* b = Msqueue_fences.deq t in
       let* c = Msqueue_fences.deq t in
       Prog.return
         (vi
            ((100 * Value.to_int_exn a)
            + (10 * Value.to_int_exn b)
            + (match c with Value.Null -> 9 | _ -> 0))))
  in
  Alcotest.(check value) "FIFO + empty" (vi 129) r

let test_msqueue_fences_hb_abs () =
  (* Fence-based synchronisation is spec-equivalent to access-based:
     the same LATabs-hb checks pass. *)
  check_ok "msqueue-fences"
    (dfs ~max_execs:40_000
       (Harness.queue_workload ~style:Libspec.Hb_abs Msqueue_fences.instantiate
          ~enqers:2 ~deqers:1 ~ops:1 ()));
  check_ok "msqueue-fences random"
    (rand
       (Harness.queue_workload ~style:Libspec.Hb_abs Msqueue_fences.instantiate
          ~enqers:2 ~deqers:2 ~ops:2 ()))

let test_mp_with_fence_queue () =
  (* The MP client verifies over the fence-based queue too. *)
  let st = Mp.fresh_stats () in
  let r = Explore.dfs ~max_execs:250_000 (Mp.make Msqueue_fences.instantiate st) in
  check_ok "mp/msqueue-fences" r;
  Alcotest.(check int) "right deq never empty" 0 (Atomic.get st.Mp.right_empty)

let test_msqueue_hb_abs () =
  check_ok "msqueue"
    (dfs (Harness.queue_workload ~style:Libspec.Hb_abs Msqueue.instantiate
            ~enqers:2 ~deqers:1 ~ops:1 ()))

let test_msqueue_mpmc () =
  check_ok "msqueue mpmc"
    (rand
       (Harness.queue_workload ~style:Libspec.Hb_abs Msqueue.instantiate
          ~enqers:2 ~deqers:2 ~ops:2 ()))

let test_hwqueue_hb () =
  check_ok "hwqueue"
    (dfs (Harness.queue_workload ~style:Libspec.Hb Hwqueue.instantiate
            ~enqers:2 ~deqers:1 ~ops:1 ()))

let test_hwqueue_fails_latabs () =
  (* The paper's point (Section 3.2): the relaxed HW queue cannot support
     commit-point abstract states.  Two concurrent enqueuers suffice: the
     FAA order and the slot-publication order diverge. *)
  let sc =
    Harness.queue_workload ~style:Libspec.So_abs Hwqueue.instantiate ~enqers:2
      ~deqers:1 ~ops:1 ()
  in
  let r = Explore.dfs ~max_execs:60_000 sc in
  Alcotest.(check bool) "found latabs violation" true
    (List.exists
       (fun (f : Explore.failure) ->
         let m = f.Explore.message in
         String.length m >= 7 && String.sub m 0 7 = "[latabs")
       r.Explore.violations)

let test_hwqueue_hist_by_search () =
  (* But a linearisation exists offline: LAThist holds via search. *)
  check_ok "hwqueue hist"
    (dfs ~max_execs:20_000
       (Harness.queue_workload ~style:Libspec.Hist Hwqueue.instantiate
          ~enqers:2 ~deqers:1 ~ops:1 ()))

let test_treiber_hist () =
  check_ok "treiber hist"
    (dfs (Harness.stack_workload ~style:Libspec.Hist Treiber.instantiate
            ~pushers:2 ~poppers:1 ~ops:1 ()))

let test_treiber_mixed () =
  check_ok "treiber mixed"
    (rand
       (Harness.stack_mixed ~style:Libspec.Hist Treiber.instantiate ~threads:3
          ~ops:2 ()))

let test_exchanger_pairs () =
  check_ok "exchanger 2" (dfs (Harness.exchanger_workload ~threads:2 ()));
  check_ok "exchanger 3"
    (rand ~execs:3_000 (Harness.exchanger_workload ~threads:3 ()))

let test_exchanger_array () =
  (* The array of exchangers (Section 4.1) satisfies the same spec. *)
  check_ok "exchanger-array x2"
    (dfs ~max_execs:40_000
       (Harness.exchanger_workload
          ~impl:(Exchanger_array.instantiate ~slots:2)
          ~threads:2 ()));
  check_ok "exchanger-array x4 threads"
    (rand ~execs:3_000
       (Harness.exchanger_workload
          ~impl:(Exchanger_array.instantiate ~slots:2)
          ~threads:4 ()))

let test_exchanger_array_matches () =
  (* Matches actually happen across the array. *)
  let matched = ref 0 in
  let sc =
    Harness.scenario ~name:"xarray-matches" (fun m ->
        let x = Exchanger_array.create ~slots:2 m ~name:"xa" in
        let t v = Exchanger_array.exchange x v in
        let judge vs =
          if Array.exists (fun v -> not (Value.equal v Value.Null)) vs then
            incr matched;
          Libspec.first_violation
            (Exchanger_spec.consistent (Exchanger_array.graph x))
        in
        ([ t (vi 1); t (vi 2); t (vi 3) ], judge))
  in
  ignore (Explore.random ~execs:6_000 ~seed:11 sc);
  Alcotest.(check bool) "array matched sometimes" true (!matched > 0)

let test_exchanger_succeeds_sometimes () =
  (* Not vacuous: exchanges do succeed in some executions. *)
  let succeeded = ref 0 in
  let sc =
    Harness.scenario ~name:"xchg-success" (fun m ->
        let x = Exchanger.create m ~name:"x" in
        let t v = Exchanger.exchange x v in
        let judge vs =
          if Array.exists (fun v -> not (Value.equal v Value.Null)) vs then
            incr succeeded;
          Explore.Pass
        in
        ([ t (vi 1); t (vi 2) ], judge))
  in
  ignore (Explore.dfs ~max_execs:20_000 sc);
  Alcotest.(check bool) "some exchange succeeded" true (!succeeded > 0)

let test_elimination_stack_consistent () =
  check_ok "es"
    (dfs ~max_execs:20_000
       (Harness.stack_workload ~style:Libspec.Hb Elimination.instantiate
          ~pushers:1 ~poppers:1 ~ops:1 ()))

let test_elimination_composition () =
  let st = Es_compose.fresh_stats () in
  check_ok "es-compose"
    (rand ~execs:1_500 (Es_compose.make ~pushers:2 ~poppers:2 ~ops:1 st));
  Alcotest.(check bool) "base path exercised" true
    (Atomic.get st.Es_compose.via_base > 0)

let test_elimination_actually_eliminates () =
  (* Under contention, some ops must complete via the exchanger. *)
  let st = Es_compose.fresh_stats () in
  ignore (rand ~execs:4_000 (Es_compose.make ~pushers:2 ~poppers:2 ~ops:2 st));
  Alcotest.(check bool) "eliminations occurred" true
    (Atomic.get st.Es_compose.eliminated > 0)

(* -- lock-based SC baselines ---------------------------------------------------- *)

let test_lockqueue_sequential () =
  let m = Machine.create () in
  let t = Lockqueue.create m ~name:"q" in
  let r =
    Machine.solo m
      (let* () = Lockqueue.enq t (vi 1) in
       let* () = Lockqueue.enq t (vi 2) in
       let* a = Lockqueue.deq t in
       let* b = Lockqueue.deq t in
       let* c = Lockqueue.deq t in
       Prog.return
         (vi
            ((100 * Value.to_int_exn a)
            + (10 * Value.to_int_exn b)
            + (match c with Value.Null -> 9 | _ -> 0))))
  in
  Alcotest.(check value) "FIFO + empty" (vi 129) r

let test_lockqueue_satisfies_sc () =
  (* The SC baseline satisfies even the SC-strength spec. *)
  check_ok "lockqueue SC-abs"
    (dfs ~max_execs:40_000
       (Harness.queue_workload ~style:Libspec.Sc_abs Lockqueue.instantiate
          ~enqers:2 ~deqers:1 ~ops:1 ()));
  check_ok "lockqueue random"
    (rand
       (Harness.queue_workload ~style:Libspec.Sc_abs Lockqueue.instantiate
          ~enqers:2 ~deqers:2 ~ops:2 ()))

let test_lockstack_satisfies_sc () =
  check_ok "lockstack SC-abs"
    (dfs ~max_execs:40_000
       (Harness.stack_workload ~style:Libspec.Sc_abs Lockstack.instantiate
          ~pushers:2 ~poppers:1 ~ops:1 ()))

(* -- Chase-Lev work-stealing deque (E8) ------------------------------------------ *)

let test_chaselev_sequential () =
  let m = Machine.create () in
  let t = Chaselev.create m ~name:"dq" in
  let r =
    Machine.solo m
      (let* () = Chaselev.push t (vi 1) in
       let* () = Chaselev.push t (vi 2) in
       let* a = Chaselev.pop t in
       (* owner pops LIFO *)
       let* b = Chaselev.pop t in
       let* c = Chaselev.pop t in
       Prog.return
         (vi
            ((100 * Value.to_int_exn a)
            + (10 * Value.to_int_exn b)
            + (match c with Value.Null -> 9 | _ -> 0))))
  in
  Alcotest.(check value) "owner LIFO + empty" (vi 219) r;
  Alcotest.(check bool) "deque consistent" true
    (Ws_spec.consistent (Chaselev.graph t) = [])

let test_chaselev_steals_fifo () =
  (* Owner pushes 1, 2; a thief awaits both pushes, then steals:
     steals take oldest-first. *)
  let m = Machine.create () in
  let t = Chaselev.create m ~name:"dq" in
  let bottom = Chaselev.bottom_loc t in
  let owner =
    Prog.returning_unit
      (let* () = Chaselev.push t (vi 1) in
       Chaselev.push t (vi 2))
  in
  let thief =
    let* _ = Prog.await bottom Mode.Acq (Value.equal (vi 2)) in
    let* a = Chaselev.steal t in
    let* b = Chaselev.steal t in
    let* c = Chaselev.steal t in
    Prog.return
      (vi
         ((100 * Value.to_int_exn a)
         + (10 * Value.to_int_exn b)
         + (match c with Value.Null -> 9 | _ -> 0)))
  in
  Machine.spawn m [ owner; thief ];
  match Machine.run m (Oracle.fresh_latest ()) with
  | Machine.Finished vs ->
      Alcotest.(check value) "steals are FIFO + empty" (vi 129) vs.(1);
      Alcotest.(check bool) "deque consistent" true
        (Ws_spec.consistent (Chaselev.graph t) = [])
  | o -> Alcotest.failf "unexpected %a" Machine.pp_outcome o

let test_chaselev_concurrent () =
  let st = Ws_client.fresh_stats () in
  let r =
    Explore.dfs ~max_execs:60_000 (Ws_client.make ~tasks:2 ~thieves:1 ~steals:1 st)
  in
  check_ok "chaselev" r

let test_chaselev_random_contended () =
  let st = Ws_client.fresh_stats () in
  let r =
    Explore.random ~execs:4_000 ~seed:3
      (Ws_client.make ~tasks:3 ~thieves:2 ~steals:2 st)
  in
  check_ok "chaselev contended" r;
  Alcotest.(check bool) "steals occurred" true
    (Atomic.get st.Ws_client.stolen > 0)

let test_chaselev_weak_fences_break () =
  (* The ablation: acq-rel instead of SC fences loses elements to double
     takes — the checker must find it. *)
  let st = Ws_client.fresh_stats () in
  let r =
    Explore.random ~execs:120_000 ~seed:1
      (Ws_client.make ~weak_fences:true ~tasks:2 ~thieves:1 ~steals:2 st)
  in
  Alcotest.(check bool) "double take found" true (r.Explore.violations <> [])

let test_spinlock_mutex () =
  (* Two threads increment a plain (non-atomic) counter under the lock:
     no race, final value 2. *)
  let sc =
    Harness.scenario ~name:"spinlock" (fun m ->
        let l = Spinlock.create m ~name:"l" in
        let c = Machine.alloc m ~name:"c" ~init:(vi 0) 1 in
        let t =
          Prog.returning_unit
            (Spinlock.with_lock l
               (let* v = Prog.load c Mode.Na in
                Prog.store c (vi (Value.to_int_exn v + 1)) Mode.Na))
        in
        let judge _ =
          Machine.join_views m;
          let v = Machine.solo m (Prog.load c Mode.Na) in
          if Value.equal v (vi 2) then Explore.Pass
          else Explore.Violation (Format.asprintf "count = %a" Value.pp v)
        in
        ([ t; t ], judge))
  in
  check_ok "spinlock" (dfs ~max_execs:20_000 sc)

let suite =
  [
    Alcotest.test_case "msqueue sequential" `Quick test_msqueue_sequential;
    Alcotest.test_case "hwqueue sequential" `Quick test_hwqueue_sequential;
    Alcotest.test_case "treiber sequential" `Quick test_treiber_sequential;
    Alcotest.test_case "elimination sequential" `Quick test_elimination_sequential;
    Alcotest.test_case "hw capacity discards" `Quick test_hw_capacity_discards;
    Alcotest.test_case "msqueue-fences sequential" `Quick
      test_msqueue_fences_sequential;
    Alcotest.test_case "msqueue-fences LAThb-abs" `Slow
      test_msqueue_fences_hb_abs;
    Alcotest.test_case "MP over msqueue-fences" `Slow test_mp_with_fence_queue;
    Alcotest.test_case "msqueue LAThb-abs (dfs)" `Slow test_msqueue_hb_abs;
    Alcotest.test_case "msqueue MPMC (random)" `Slow test_msqueue_mpmc;
    Alcotest.test_case "hwqueue LAThb (dfs)" `Slow test_hwqueue_hb;
    Alcotest.test_case "hwqueue fails LATabs" `Slow test_hwqueue_fails_latabs;
    Alcotest.test_case "hwqueue LAThist via search" `Slow
      test_hwqueue_hist_by_search;
    Alcotest.test_case "treiber LAThist (dfs)" `Slow test_treiber_hist;
    Alcotest.test_case "treiber mixed (random)" `Slow test_treiber_mixed;
    Alcotest.test_case "exchanger consistency" `Slow test_exchanger_pairs;
    Alcotest.test_case "exchanger succeeds sometimes" `Slow
      test_exchanger_succeeds_sometimes;
    Alcotest.test_case "exchanger array consistent" `Slow test_exchanger_array;
    Alcotest.test_case "exchanger array matches" `Slow
      test_exchanger_array_matches;
    Alcotest.test_case "elimination stack consistent" `Slow
      test_elimination_stack_consistent;
    Alcotest.test_case "elimination composition" `Slow
      test_elimination_composition;
    Alcotest.test_case "elimination eliminates" `Slow
      test_elimination_actually_eliminates;
    Alcotest.test_case "spinlock mutual exclusion" `Slow test_spinlock_mutex;
    Alcotest.test_case "lockqueue sequential" `Quick test_lockqueue_sequential;
    Alcotest.test_case "lockqueue satisfies SC-abs" `Slow
      test_lockqueue_satisfies_sc;
    Alcotest.test_case "lockstack satisfies SC-abs" `Slow
      test_lockstack_satisfies_sc;
    Alcotest.test_case "chaselev sequential (owner LIFO)" `Quick
      test_chaselev_sequential;
    Alcotest.test_case "chaselev steals are FIFO" `Quick
      test_chaselev_steals_fifo;
    Alcotest.test_case "chaselev concurrent (dfs)" `Slow test_chaselev_concurrent;
    Alcotest.test_case "chaselev contended (random)" `Slow
      test_chaselev_random_contended;
    Alcotest.test_case "chaselev weak fences break" `Slow
      test_chaselev_weak_fences_break;
  ]
