open Compass_rmc
open Compass_event
open Compass_machine
open Compass_spec
open Compass_clients
open Compass_sim
open Helpers

(* The forward-simulation checker and the most-general-client generator:

   - the spec's labelled-transition interface ([Libspec.step]) respects
     FIFO/LIFO legality;
   - Simrel finds commit-point assignments exactly when one exists —
     including the non-monotone case where a commit-order prefix is
     unlinearizable but the full set is (Herlihy-Wing shape), which a
     naive prefix-closed checker would wrongly reject;
   - MGC enumeration is deterministic, well-formed on every registry
     entry, and at depth 2 contains the MP-shaped client that
     rediscovers the ms-weak violation;
   - simulation agrees with outcome-inclusion refinement on the whole
     refinable registry (simulation is the stronger check: its verdict
     matches on every correct structure and on the broken fixture);
   - verdicts are invariant under reduction, incrementality and job
     count. *)

let vi n = Value.Int n

let entry key =
  match Specreg.find key with
  | Some e -> e
  | None -> Alcotest.failf "no registered structure named %s" key

(* --- the spec LTS: Libspec.step ----------------------------------- *)

let test_step_queue_fifo () =
  let step st ~id ~op ~result = Libspec.step Libspec.Queue st ~id ~op ~result in
  (* empty removal commits EmpDeq, not a value *)
  Alcotest.(check bool) "empty deq illegal" true
    (step [] ~id:0 ~op:Libspec.Remove ~result:(Event.Deq (vi 1)) = None);
  Alcotest.(check bool) "EmpDeq legal on empty" true
    (step [] ~id:0 ~op:Libspec.Remove ~result:Event.EmpDeq <> None);
  let st1 =
    match step [] ~id:0 ~op:(Libspec.Insert (vi 1)) ~result:(Event.Enq (vi 1)) with
    | Some (st, so) ->
        Alcotest.(check (list (pair int int))) "enq has no so edges" [] so;
        st
    | None -> Alcotest.fail "enq 1 rejected"
  in
  let st2 =
    match step st1 ~id:1 ~op:(Libspec.Insert (vi 2)) ~result:(Event.Enq (vi 2)) with
    | Some (st, _) -> st
    | None -> Alcotest.fail "enq 2 rejected"
  in
  (* FIFO: the oldest element comes out, with an so edge from its enq *)
  Alcotest.(check bool) "deq 2 before 1 illegal" true
    (step st2 ~id:2 ~op:Libspec.Remove ~result:(Event.Deq (vi 2)) = None);
  (match step st2 ~id:2 ~op:Libspec.Remove ~result:(Event.Deq (vi 1)) with
  | Some (st, so) ->
      Alcotest.(check (list (pair int int))) "so: enq 0 -> deq 2" [ (0, 2) ] so;
      Alcotest.(check bool) "one element left" true (List.length st = 1)
  | None -> Alcotest.fail "FIFO deq rejected");
  Alcotest.(check bool) "EmpDeq illegal on non-empty" true
    (step st2 ~id:2 ~op:Libspec.Remove ~result:Event.EmpDeq = None);
  (* events outside the kind's vocabulary don't step *)
  Alcotest.(check bool) "pop result rejected by queue kind" true
    (step st2 ~id:2 ~op:Libspec.Remove ~result:(Event.Pop (vi 1)) = None)

let test_step_stack_lifo () =
  let step st ~id ~op ~result = Libspec.step Libspec.Stack st ~id ~op ~result in
  let st2 =
    match
      step [] ~id:0 ~op:(Libspec.Insert (vi 1)) ~result:(Event.Push (vi 1))
    with
    | Some (st1, _) -> (
        match
          step st1 ~id:1 ~op:(Libspec.Insert (vi 2)) ~result:(Event.Push (vi 2))
        with
        | Some (st, _) -> st
        | None -> Alcotest.fail "push 2 rejected")
    | None -> Alcotest.fail "push 1 rejected"
  in
  Alcotest.(check bool) "pop 1 under 2 illegal" true
    (step st2 ~id:2 ~op:Libspec.Remove ~result:(Event.Pop (vi 1)) = None);
  match step st2 ~id:2 ~op:Libspec.Remove ~result:(Event.Pop (vi 2)) with
  | Some (_, so) ->
      Alcotest.(check (list (pair int int))) "so: push 1 -> pop 2" [ (1, 2) ] so
  | None -> Alcotest.fail "LIFO pop rejected"

let test_step_event_vocabulary () =
  Alcotest.(check bool) "exchange is outside queue vocabulary" true
    (Libspec.step_event Libspec.Queue []
       {
         Event.id = 0;
         obj = 0;
         typ = Event.Exchange (vi 1, vi 2);
         tid = 0;
         view = View.bot;
         logview = Lview.singleton 0;
         cix = (1, 0);
       }
    = None)

(* --- Simrel: commit-point assignment search ------------------------- *)

let ev id typ preds step = (id, typ, preds, step)

let test_simrel_fifo_ok () =
  let g =
    mk_graph
      [
        ev 0 (Event.Enq (vi 1)) [] 1;
        ev 1 (Event.Enq (vi 2)) [ 0 ] 2;
        ev 2 (Event.Deq (vi 1)) [ 0; 1 ] 3;
      ]
      [ (0, 2) ]
  in
  match Simrel.check Libspec.Queue g with
  | Simrel.Simulates _ -> ()
  | _ -> Alcotest.fail "legal FIFO history should simulate"

let test_simrel_reorder_freedom () =
  (* without an lhb edge between the enqueues, either insertion order is
     a legal assignment, so dequeuing the later-committed value is fine *)
  let g =
    mk_graph
      [
        ev 0 (Event.Enq (vi 1)) [] 1;
        ev 1 (Event.Enq (vi 2)) [] 2;
        ev 2 (Event.Deq (vi 2)) [ 1 ] 3;
      ]
      [ (1, 2) ]
  in
  match Simrel.check Libspec.Queue g with
  | Simrel.Simulates _ -> ()
  | _ -> Alcotest.fail "unordered enqueues may linearise either way"

let test_simrel_fifo_break_localised () =
  (* Enq 1 happens-before Enq 2, yet 2 is dequeued first: no assignment;
     the witness localises to the dequeue *)
  let g =
    mk_graph
      [
        ev 0 (Event.Enq (vi 1)) [] 1;
        ev 1 (Event.Enq (vi 2)) [ 0 ] 2;
        ev 2 (Event.Deq (vi 2)) [ 0; 1 ] 3;
      ]
      [ (1, 2) ]
  in
  match Simrel.check Libspec.Queue g with
  | Simrel.Breaks b ->
      Alcotest.(check int) "breaks at the dequeue" 2 b.Simrel.index;
      Alcotest.(check bool) "at the Deq event" true
        (Event.typ_equal b.Simrel.at.Event.typ (Event.Deq (vi 2)));
      Alcotest.(check int) "two matched commits before it" 2
        (List.length b.Simrel.prefix)
  | _ -> Alcotest.fail "ordered FIFO violation should break"

let test_simrel_nonmonotone_prefix () =
  (* the Herlihy-Wing shape: the commit-order prefix
     {Enq 1 <lhb Enq 2, Deq 2} admits no assignment, but the full set
     (with Deq 1) does — the checker must judge the full set *)
  let full =
    mk_graph
      [
        ev 0 (Event.Enq (vi 1)) [] 1;
        ev 1 (Event.Enq (vi 2)) [ 0 ] 2;
        ev 2 (Event.Deq (vi 2)) [ 1 ] 3;
        ev 3 (Event.Deq (vi 1)) [ 0 ] 4;
      ]
      [ (1, 2); (0, 3) ]
  in
  (match Simrel.check Libspec.Queue full with
  | Simrel.Simulates _ -> ()
  | _ -> Alcotest.fail "full hw-shaped set should simulate");
  let prefix =
    mk_graph
      [
        ev 0 (Event.Enq (vi 1)) [] 1;
        ev 1 (Event.Enq (vi 2)) [ 0 ] 2;
        ev 2 (Event.Deq (vi 2)) [ 1 ] 3;
      ]
      [ (1, 2) ]
  in
  match Simrel.check Libspec.Queue prefix with
  | Simrel.Breaks _ -> ()
  | _ -> Alcotest.fail "the bare prefix alone should not simulate"

let test_simrel_lifo_break () =
  let g =
    mk_graph
      [
        ev 0 (Event.Push (vi 1)) [] 1;
        ev 1 (Event.Push (vi 2)) [ 0 ] 2;
        ev 2 (Event.Pop (vi 1)) [ 0; 1 ] 3;
      ]
      [ (0, 2) ]
  in
  match Simrel.check Libspec.Stack g with
  | Simrel.Breaks b -> Alcotest.(check int) "breaks at the pop" 2 b.Simrel.index
  | _ -> Alcotest.fail "LIFO violation should break"

let test_simrel_so_mismatch () =
  (* value-correct but the recorded so edge names the wrong insertion *)
  let g =
    mk_graph
      [
        ev 0 (Event.Enq (vi 1)) [] 1;
        ev 1 (Event.Deq (vi 1)) [ 0 ] 2;
      ]
      [] (* missing the so edge the spec predicts *)
  in
  match Simrel.check Libspec.Queue g with
  | Simrel.Breaks _ -> ()
  | _ -> Alcotest.fail "missing so edge should break the abstraction"

(* --- MGC generation -------------------------------------------------- *)

let test_mgc_deterministic () =
  let a = Mgc.generate ~depth:2 () and b = Mgc.generate ~depth:2 () in
  Alcotest.(check (list string)) "same ids, same order"
    (List.map (fun (c : Mgc.client) -> c.Mgc.id) a)
    (List.map (fun (c : Mgc.client) -> c.Mgc.id) b)

let test_mgc_counts () =
  Alcotest.(check int) "depth 1 family" 8
    (List.length (Mgc.generate ~depth:1 ()));
  (* 6 sequences per thread, 36 pairs, plus one handoff per (p, q)
     position pair: 36 + (sum of lengths)^2 = 36 + 100 *)
  Alcotest.(check int) "depth 2 family" 136
    (List.length (Mgc.generate ~depth:2 ()));
  let ids = List.map (fun (c : Mgc.client) -> c.Mgc.id) (Mgc.generate ~depth:2 ()) in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_mgc_find_mp_shape () =
  (* the MP pattern of the hand-written E1 client: two inserts, a
     release-flag publish, an acquiring consumer, one remove *)
  match Mgc.find ~depth:2 "ii|r+h2.1" with
  | Some c ->
      Alcotest.(check bool) "threads" true
        (c.Mgc.threads = [| [ Mgc.Ins; Mgc.Ins ]; [ Mgc.Rem ] |]);
      Alcotest.(check bool) "handoff after 2nd op, before 1st" true
        (c.Mgc.handoff = Some (2, 1))
  | None -> Alcotest.fail "MP-shaped client missing from the depth-2 family"

let test_mgc_well_formed_all_entries () =
  (* every registry entry instantiates and replays its first path without
     raising — including the factory-less chaselev and exchanger *)
  List.iter
    (fun (e : Libspec.entry) ->
      List.iter
        (fun c ->
          let sc = Mgc.scenario e ~judge:(fun _ _ -> Explore.Pass) c in
          let r =
            Explore.replay ~config:Machine.default_config sc [||]
          in
          match r.Explore.r_verdict with
          | Explore.Violation m ->
              Alcotest.failf "%s / %s first path violates: %s" e.Libspec.key
                c.Mgc.id m
          | _ -> ())
        (Mgc.generate ~depth:1 ()))
    (Specreg.all ())

(* --- simulation end-to-end ------------------------------------------- *)

let quick_options depth =
  { Sim.default_options with mgc_depth = depth; max_execs = 120_000 }

let test_sim_msweak_witness () =
  let e = entry "ms-weak" in
  let r = Sim.run ~options:(quick_options 1) e in
  Alcotest.(check bool) "ms-weak does not simulate" false r.Sim.ok;
  match r.Sim.witness with
  | None -> Alcotest.fail "no witness recorded"
  | Some w -> (
      (match w.Sim.w_detail with
      | None -> Alcotest.fail "witness not localised to a break step"
      | Some d ->
          Alcotest.(check bool) "break names a step" true (d.Sim.d_step >= 0));
      (* the shrunk script replays to the same simulation-level message *)
      match Sim.client_scenario ~depth:1 e w.Sim.w_client with
      | None -> Alcotest.failf "no generated client %s" w.Sim.w_client
      | Some sc -> (
          let r =
            Explore.replay ~config:Machine.default_config sc w.Sim.w_trace
          in
          match r.Explore.r_verdict with
          | Explore.Violation m ->
              Alcotest.(check string) "replay reproduces the break"
                w.Sim.w_message m
          | Explore.Pass -> Alcotest.fail "witness replayed to Pass"
          | Explore.Discard d -> Alcotest.failf "witness discarded: %s" d))

let test_mgc_depth2_rediscovers_msweak () =
  (* The hand-written E1 client finds ms-weak's violation through its
     unsynchronised dequeuer racing with the two enqueues; the depth-2
     family rediscovers exactly that shape as the no-handoff client
     [ii|r].  The handoff variant [ii|r+h2.1] is the E1 *property*
     pattern (both enqueues happen-before the dequeue): the flag
     sequentialises the race away, so even ms-weak simulates under it —
     and any empty dequeue there would be a commit-point break. *)
  let e = entry "ms-weak" in
  let r =
    Sim.run ~options:{ (quick_options 2) with only_client = Some "ii|r" } e
  in
  Alcotest.(check int) "exactly one client selected" 1 r.Sim.clients_run;
  Alcotest.(check bool) "the E1 race shape breaks ms-weak" false r.Sim.ok;
  (match r.Sim.witness with
  | Some w ->
      Alcotest.(check bool) "simulation-level message" true
        (String.length w.Sim.w_message >= 16
        && String.sub w.Sim.w_message 0 16 = "simulation break")
  | None -> Alcotest.fail "no witness on the rediscovered violation");
  let r' =
    Sim.run
      ~options:{ (quick_options 2) with only_client = Some "ii|r+h2.1" }
      e
  in
  Alcotest.(check bool) "the synchronised MP pattern simulates" true r'.Sim.ok

let test_hw_depth2_weak_empdeq () =
  (* At depth 2 the MGC exposes the weak Herlihy-Wing empty dequeue:
     under client [ir|ir] a dequeuer can bound its scan by a stale
     relaxed read of [back], miss the other thread's enqueue, and commit
     EmpDeq.  No commit-point assignment exists — each thread's program
     order pins its enqueue before its removal, so some element always
     remains when the EmpDeq must step.  The registered workloads
     (Hist:sat on the ladder) never run an enqueue and a dequeue on the
     same thread, so they cannot produce the shape; the bench therefore
     gates hw at depth 1 and pins this break as an expected finding. *)
  let e = entry "hw" in
  let r =
    Sim.run
      ~options:
        {
          (quick_options 2) with
          only_client = Some "ir|ir";
          until_violation = true;
        }
      e
  in
  Alcotest.(check bool) "ir|ir breaks hw at depth 2" false r.Sim.ok;
  match r.Sim.witness with
  | None -> Alcotest.fail "no witness on the hw break"
  | Some w -> (
      (match w.Sim.w_detail with
      | Some d ->
          Alcotest.(check bool) "commit-point break, not a fault" false
            d.Sim.d_fault
      | None -> Alcotest.fail "witness not localised");
      (* Independent cross-check that the break is semantic, not a Simrel
         artefact: the repo's LAThist backtracking search also finds no
         linearisation of the replayed graph. *)
      match Mgc.find ~depth:2 w.Sim.w_client with
      | None -> Alcotest.fail "witness client not in the family"
      | Some c -> (
          let gref = ref None in
          let sc =
            Mgc.scenario e
              ~judge:(fun g _ ->
                gref := Some g;
                Explore.Pass)
              c
          in
          let _ = Explore.replay ~config:Machine.default_config sc w.Sim.w_trace in
          match !gref with
          | None -> Alcotest.fail "replay did not reach the judge"
          | Some g -> (
              match Linearize.search Linearize.Queue g with
              | Linearize.Not_linearizable -> ()
              | Linearize.Linearizable _ ->
                  Alcotest.fail "LAThist search linearises the sim break"
              | Linearize.Gave_up -> Alcotest.fail "LAThist search gave up")))

let test_msfences_depth2 () =
  (* The fence-based Michael-Scott queue simulates its spec over the whole
     depth-2 family.  Without release fences before its relaxed tail CASes
     it broke on [i|ir]: the second enqueuer linked after a node it found
     through a relaxed tail read, and its own dequeue then read the
     sentinel's [next] as the stale null. *)
  let r =
    Sim.run
      ~options:{ (quick_options 2) with reduce = Machine.RDporRf }
      (entry "ms-fences")
  in
  Alcotest.(check bool) "ms-fences simulates at depth 2" true r.Sim.ok;
  Alcotest.(check bool) "complete search" true r.Sim.complete;
  Alcotest.(check int) "every client explored" 136 r.Sim.clients_run;
  Alcotest.(check int) "executions (one per rf-class)" 931 r.Sim.executions

let test_incomplete_pass () =
  (* A pass only counts from a finished search.  A client that hits its
     execution budget, or whose commit-point search gave up on an
     execution (booked as a discard, so never checked), leaves the
     structure incomplete, and the verdict line says how far it got. *)
  let module J = Compass_util.Jsonout in
  let render r = Format.asprintf "%a" Sim.pp r in
  let contains s sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let r =
    Sim.run ~options:{ (quick_options 1) with max_execs = 5 } (entry "ms")
  in
  Alcotest.(check bool) "no violation" true r.Sim.ok;
  Alcotest.(check bool) "budget hit: incomplete" false r.Sim.complete;
  Alcotest.(check bool) "verdict says how far the search got" true
    (contains (render r)
       (Printf.sprintf "verdict: no violation within %d executions"
          r.Sim.executions));
  Alcotest.(check bool) "no SIMULATES from a partial search" false
    (contains (render r) "SIMULATES");
  let full = Sim.run ~options:(quick_options 1) (entry "ms") in
  Alcotest.(check bool) "complete search simulates" true
    (full.Sim.complete && contains (render full) "verdict: SIMULATES");
  (* a give-up is named in the text and in the JSON *)
  let gave =
    match full.Sim.rows with
    | row :: rest -> { full with Sim.rows = { row with Sim.c_gave_up = 2 } :: rest }
    | [] -> Alcotest.fail "no clients"
  in
  let id = (List.hd gave.Sim.rows).Sim.c_id in
  Alcotest.(check bool) "give-up client named" true
    (contains (render gave) (id ^ " ") && contains (render gave) "GAVE UP");
  match Sim.to_json gave with
  | J.Obj fields ->
      Alcotest.(check bool) "gave_up_clients lists it" true
        (List.assoc_opt "gave_up_clients" fields = Some (J.List [ J.Str id ]))
  | _ -> Alcotest.fail "report JSON is not an object"

(* The JSON report shows the runs dpor-rf threw away, per client and
   summed per structure; the ms depth-1 counts are pinned. *)
let test_sim_json_discarded_runs () =
  let module J = Compass_util.Jsonout in
  let r =
    Sim.run
      ~options:{ (quick_options 1) with reduce = Machine.RDporRf }
      (entry "ms")
  in
  let field name = function
    | J.Obj fields -> (
        match List.assoc_opt name fields with
        | Some v -> v
        | None -> Alcotest.failf "no field %s" name)
    | _ -> Alcotest.fail "not a JSON object"
  in
  let int name j =
    match field name j with
    | J.Int n -> n
    | _ -> Alcotest.failf "field %s is not an int" name
  in
  let j = Sim.to_json r in
  List.iter
    (fun (name, v) ->
      Alcotest.(check int) ("ms depth 1: " ^ name) v (int name j))
    [ ("executions", 17); ("dpor_pruned", 0); ("rf_pruned", 47); ("runs", 64) ];
  let rows =
    match field "clients" j with
    | J.List rows -> rows
    | _ -> Alcotest.fail "clients is not a list"
  in
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " sums the client rows")
        (int name j)
        (List.fold_left (fun n row -> n + int name row) 0 rows))
    [ "executions"; "dpor_pruned"; "rf_pruned" ];
  Alcotest.(check bool) "no pruned field: only DPOR prunes" false
    (match j with J.Obj fields -> List.mem_assoc "pruned" fields | _ -> true)

let test_sim_agrees_with_refine () =
  (* simulation is the stronger method: across the whole refinable
     registry its verdict coincides with outcome-inclusion (both pass on
     correct structures, both reject the broken fixture) *)
  List.iter
    (fun (e : Libspec.entry) ->
      if e.Libspec.refinable then begin
        let s = Sim.run ~options:(quick_options 1) e in
        let o = Refine.run e in
        Alcotest.(check bool)
          (e.Libspec.key ^ ": simulation matches outcome-inclusion")
          o.Refine.ok s.Sim.ok;
        Alcotest.(check bool)
          (e.Libspec.key ^ ": simulation implies outcome-inclusion")
          true
          ((not s.Sim.ok) || o.Refine.ok)
      end)
    (Specreg.all ())

let test_sim_verdict_invariance () =
  (* the aggregate verdict (and violating client set) must not depend on
     the reduction, incrementality or job count *)
  List.iter
    (fun key ->
      let e = entry key in
      let base = ref None in
      List.iter
        (fun (reduce, incremental, jobs) ->
          let r =
            Sim.run
              ~options:
                { (quick_options 1) with reduce; incremental; jobs }
              e
          in
          let verdict =
            ( r.Sim.ok,
              List.filter_map
                (fun (row : Sim.client_row) ->
                  if row.Sim.c_ok then None else Some row.Sim.c_id)
                r.Sim.rows )
          in
          match !base with
          | None -> base := Some verdict
          | Some v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s invariant under (%s, incremental=%b, jobs=%d)"
                   key
                   (match reduce with
                   | Machine.RDpor -> "dpor"
                   | Machine.RDporRf -> "dpor-rf"
                   | Machine.RNone -> "none")
                   incremental jobs)
                true (v = verdict))
        [
          (Machine.RNone, true, 1);
          (Machine.RDpor, true, 1);
          (Machine.RDpor, false, 1);
          (Machine.RDpor, true, 2);
        ])
    [ "lock-queue"; "ms-weak" ]

let suite =
  [
    Alcotest.test_case "specobj: queue steps are FIFO-legal" `Quick
      test_step_queue_fifo;
    Alcotest.test_case "specobj: stack steps are LIFO-legal" `Quick
      test_step_stack_lifo;
    Alcotest.test_case "specobj: foreign events don't step" `Quick
      test_step_event_vocabulary;
    Alcotest.test_case "simrel: legal FIFO history simulates" `Quick
      test_simrel_fifo_ok;
    Alcotest.test_case "simrel: unordered enqueues reorder freely" `Quick
      test_simrel_reorder_freedom;
    Alcotest.test_case "simrel: FIFO break localised to the dequeue" `Quick
      test_simrel_fifo_break_localised;
    Alcotest.test_case "simrel: hw-shaped non-monotone prefix" `Quick
      test_simrel_nonmonotone_prefix;
    Alcotest.test_case "simrel: LIFO break localised" `Quick
      test_simrel_lifo_break;
    Alcotest.test_case "simrel: so-edge mismatch breaks" `Quick
      test_simrel_so_mismatch;
    Alcotest.test_case "mgc: enumeration is deterministic" `Quick
      test_mgc_deterministic;
    Alcotest.test_case "mgc: family sizes and id uniqueness" `Quick
      test_mgc_counts;
    Alcotest.test_case "mgc: depth-2 family contains the MP shape" `Quick
      test_mgc_find_mp_shape;
    Alcotest.test_case "mgc: well-formed on every registry entry" `Slow
      test_mgc_well_formed_all_entries;
    Alcotest.test_case "sim: ms-weak breaks with replayable localised witness"
      `Slow test_sim_msweak_witness;
    Alcotest.test_case "sim: depth-2 MP client rediscovers ms-weak" `Slow
      test_mgc_depth2_rediscovers_msweak;
    Alcotest.test_case "sim: depth-2 exposes hw's weak empty dequeue" `Slow
      test_hw_depth2_weak_empdeq;
    Alcotest.test_case "sim: ms-fences simulates at depth 2" `Slow
      test_msfences_depth2;
    Alcotest.test_case "sim: a pass from an unfinished search is incomplete"
      `Quick test_incomplete_pass;
    Alcotest.test_case "sim: JSON counts the runs a reduction discarded"
      `Quick test_sim_json_discarded_runs;
    Alcotest.test_case "sim: agrees with outcome-inclusion on the registry"
      `Slow test_sim_agrees_with_refine;
    Alcotest.test_case "sim: verdict invariant under reduce/incremental/jobs"
      `Slow test_sim_verdict_invariance;
  ]
