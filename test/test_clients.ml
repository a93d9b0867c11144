open Compass_rmc
open Compass_machine
open Compass_dstruct
open Compass_clients

(* The paper's client verifications, as tests. *)

let check_ok name (r : Explore.report) =
  Alcotest.(check (list string))
    (name ^ " violations")
    []
    (List.map (fun (f : Explore.failure) -> f.Explore.message) r.Explore.violations)

(* MP (Figure 1): exhaustively verified for the MS queue. *)
let test_mp_msqueue () =
  let st = Mp.fresh_stats () in
  let r = Explore.dfs ~max_execs:100_000 (Mp.make Msqueue.instantiate st) in
  check_ok "mp" r;
  Alcotest.(check bool) "exhaustive" true r.Explore.complete;
  Alcotest.(check int) "right deq never empty" 0 (Atomic.get st.Mp.right_empty);
  Alcotest.(check bool) "got both values" true
    (Atomic.get st.Mp.right_got_41 > 0 && Atomic.get st.Mp.right_got_42 > 0);
  Alcotest.(check int) "LAThb excludes empty always"
    (Atomic.get st.Mp.executions)
    (Atomic.get st.Mp.excluded_hb);
  Alcotest.(check int) "LATso never excludes" 0 (Atomic.get st.Mp.excluded_so)

(* The tallies are shared by the worker domains of a [--jobs] search, so
   after one on two domains they must still account for every judged
   execution. *)
let test_mp_tallies_jobs () =
  let st = Mp.fresh_stats () in
  let r =
    Explore.dfs ~jobs:2 ~max_execs:20_000 (Mp.make Msqueue.instantiate st)
  in
  check_ok "mp jobs 2" r;
  let n = r.Explore.executions in
  Alcotest.(check int) "tallied executions" n (Atomic.get st.Mp.executions);
  Alcotest.(check int) "right deq outcomes" n
    (Atomic.get st.Mp.right_got_41
    + Atomic.get st.Mp.right_got_42
    + Atomic.get st.Mp.right_empty);
  Alcotest.(check int) "LAThb excludes empty in all" n
    (Atomic.get st.Mp.excluded_hb)

(* MP for the HW queue: the LAThb specs suffice (Section 3.2). *)
let test_mp_hwqueue () =
  let st = Mp.fresh_stats () in
  let r = Explore.dfs ~max_execs:20_000 (Mp.make Hwqueue.instantiate st) in
  check_ok "mp-hw" r;
  Alcotest.(check bool) "exhaustive" true r.Explore.complete;
  Alcotest.(check int) "right deq never empty" 0 (Atomic.get st.Mp.right_empty)

(* The weak-flag ablation: the empty outcome becomes observable. *)
let test_mp_weak_flag () =
  let st = Mp.fresh_stats () in
  let r =
    Explore.dfs ~max_execs:400_000
      (Mp.make ~flag_write:Mode.Rlx ~flag_read:Mode.Rlx Msqueue.instantiate st)
  in
  check_ok "mp-weak (queue itself stays consistent)" r;
  Alcotest.(check bool) "empty observed without synchronisation" true
    (Atomic.get st.Mp.right_empty > 0)

(* SPSC (Section 3.2): end-to-end FIFO through arrays. *)
let test_spsc () =
  List.iter
    (fun factory ->
      let st = Spsc_client.fresh_stats () in
      let r =
        Explore.random ~execs:2_000 ~seed:3 (Spsc_client.make ~n:3 factory st)
      in
      check_ok "spsc" r)
    [ Msqueue.instantiate; Hwqueue.instantiate ]

let test_spsc_exhaustive_small () =
  let st = Spsc_client.fresh_stats () in
  let r =
    (* retries=2 keeps the consumer's retry subtree small enough to
       exhaust (3.1k executions). *)
    Explore.dfs ~max_execs:60_000
      (Spsc_client.make ~n:1 ~retries:2 Msqueue.instantiate st)
  in
  check_ok "spsc n=1" r;
  Alcotest.(check bool) "exhaustive" true r.Explore.complete

(* Two-queue pipeline, mixing implementations both ways. *)
let test_pipeline () =
  List.iter
    (fun (f1, f2) ->
      let st = Pipeline.fresh_stats () in
      let r =
        Explore.random ~execs:1_000 ~seed:11 (Pipeline.make ~n:2 f1 f2 st)
      in
      check_ok "pipeline" r)
    [
      (Msqueue.instantiate, Hwqueue.instantiate);
      (Hwqueue.instantiate, Msqueue.instantiate);
    ]

(* Resource exchange (Section 4.2): conservation + race-free transfer. *)
let test_resource_exchange () =
  let st = Resource_exchange.fresh_stats () in
  let r =
    Explore.dfs ~max_execs:60_000 (Resource_exchange.make ~threads:2 st)
  in
  check_ok "resource exchange" r;
  Alcotest.(check bool) "some swaps happened" true
    (Atomic.get st.Resource_exchange.swaps > 0)

let test_resource_exchange_three () =
  let st = Resource_exchange.fresh_stats () in
  let r =
    Explore.random ~execs:3_000 ~seed:5 (Resource_exchange.make ~threads:3 st)
  in
  check_ok "resource exchange x3" r

(* MP through a stack: STACK-EMPPOP's turn. *)
let test_mp_stack () =
  List.iter
    (fun factory ->
      let st = Mp_stack.fresh_stats () in
      let r = Explore.dfs ~max_execs:250_000 (Mp_stack.make factory st) in
      check_ok "mp-stack" r;
      Alcotest.(check int) "right pop never empty" 0
        (Atomic.get st.Mp_stack.right_empty);
      Alcotest.(check bool) "pops succeeded" true
        (Atomic.get st.Mp_stack.right_got > 0))
    [ Treiber.instantiate ]

(* Strong FIFO recovery under a client lock (Section 3.1). *)
let test_strong_fifo_recovery () =
  List.iter
    (fun factory ->
      let st = Strong_fifo.fresh_stats () in
      let r = Explore.dfs ~max_execs:150_000 (Strong_fifo.make factory st) in
      check_ok "strong-fifo" r;
      let broke = Atomic.make 0 in
      let rc =
        Explore.dfs ~max_execs:60_000 (Strong_fifo.make_control factory broke)
      in
      check_ok "strong-fifo control (weak spec still holds)" rc;
      Alcotest.(check bool) "bare queue breaks totality somewhere" true
        (Atomic.get broke > 0))
    [ Msqueue.instantiate; Hwqueue.instantiate ]

(* Litmus battery: the substrate's weak behaviours and guarantees. *)
let test_litmus_all () =
  List.iter
    (fun (t : Litmus.t) ->
      let ok, report, obs = Litmus.verdict t in
      if not ok then
        Alcotest.failf "%s: %s (observed %d, expected %s, %d violations)"
          report.Explore.name t.Litmus.descr obs
          (match t.Litmus.expect with
          | `Observable -> "observable"
          | `Forbidden -> "forbidden")
          (List.length report.Explore.violations))
    (Litmus.all ())

let test_litmus_2p2w_policies () =
  let t = Litmus.two_two_w () in
  let config = { Machine.default_config with policy = `Gap } in
  let ok, _, obs = Litmus.verdict ~config t in
  Alcotest.(check bool) "2+2W observable under gap" true (ok && obs > 0);
  let t = Litmus.two_two_w () in
  let _, _, obs = Litmus.verdict t in
  Alcotest.(check int) "2+2W forbidden under append" 0 obs

let suite =
  [
    Alcotest.test_case "MP with MS queue (exhaustive)" `Slow test_mp_msqueue;
    Alcotest.test_case "MP with HW queue (exhaustive)" `Slow test_mp_hwqueue;
    Alcotest.test_case "MP tallies add up under jobs 2" `Quick
      test_mp_tallies_jobs;
    Alcotest.test_case "MP weak-flag ablation" `Slow test_mp_weak_flag;
    Alcotest.test_case "SPSC end-to-end FIFO" `Slow test_spsc;
    Alcotest.test_case "SPSC n=1 exhaustive" `Slow test_spsc_exhaustive_small;
    Alcotest.test_case "two-queue pipeline" `Slow test_pipeline;
    Alcotest.test_case "resource exchange (exhaustive)" `Slow
      test_resource_exchange;
    Alcotest.test_case "resource exchange x3 (random)" `Slow
      test_resource_exchange_three;
    Alcotest.test_case "MP through a stack" `Slow test_mp_stack;
    Alcotest.test_case "strong FIFO under a client lock" `Slow
      test_strong_fifo_recovery;
    Alcotest.test_case "litmus battery" `Slow test_litmus_all;
    Alcotest.test_case "2+2W timestamp policies" `Slow test_litmus_2p2w_policies;
  ]
