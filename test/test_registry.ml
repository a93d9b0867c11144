open Compass_event
open Compass_machine
open Compass_spec
open Compass_dstruct
open Compass_clients

(* The spec registry and the outcome-inclusion oracle:

   - completeness: every Iface-exposed factory is registered, keys are
     unique, payloads match their declared names, duplicates are
     rejected;
   - the generic [Libspec.check] is byte-identical to the legacy per-kind
     checker compositions on explored executions, and its LATabs legs to
     the per-kind replays on random graphs (differential);
   - every entry's smoke workload explores cleanly — or violates, for
     the checked-in broken fixtures;
   - the spec object sits at the top of the ladder (SC-abs on every
     execution);
   - outcome inclusion ([Refine], the oracle forward simulation is
     compared against in test_sim.ml): ms/treiber/hw outcome sets are
     included in their spec object's; ms-weak's are not. *)

let entry key =
  match Specreg.find key with
  | Some e -> e
  | None -> Alcotest.failf "no registered structure named %s" key

(* --- completeness -------------------------------------------------- *)

let impl_name (e : Libspec.entry) =
  match e.Libspec.impl with
  | Specreg.Queue f -> Some f.Iface.q_name
  | Specreg.Stack f -> Some f.Iface.s_name
  | _ -> None

let test_all_factories_registered () =
  let registered = List.map (fun e -> e.Libspec.struct_name) (Specreg.all ()) in
  let queue_factories =
    [
      Msqueue.instantiate; Msqueue_fences.instantiate;
      Msqueue.relaxed_publication;
      Hwqueue.instantiate; Lockqueue.instantiate;
    ]
  in
  let stack_factories =
    [ Treiber.instantiate; Lockstack.instantiate; Elimination.instantiate ]
  in
  List.iter
    (fun (f : Iface.queue_factory) ->
      Alcotest.(check bool)
        (f.Iface.q_name ^ " registered")
        true
        (List.mem f.Iface.q_name registered))
    queue_factories;
  List.iter
    (fun (f : Iface.stack_factory) ->
      Alcotest.(check bool)
        (f.Iface.s_name ^ " registered")
        true
        (List.mem f.Iface.s_name registered))
    stack_factories

let test_keys_unique_and_consistent () =
  let keys = Specreg.keys () in
  Alcotest.(check int) "keys unique" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun (e : Libspec.entry) ->
      (match impl_name e with
      | Some n ->
          Alcotest.(check string)
            (e.Libspec.key ^ " impl name matches")
            e.Libspec.struct_name n
      | None -> ());
      Alcotest.(check bool)
        (e.Libspec.key ^ " has a default client")
        true
        (e.Libspec.scenarios <> []);
      (* refinable entries must expose a factory the driver can pair
         with a spec object *)
      if e.Libspec.refinable then
        Alcotest.(check bool)
          (e.Libspec.key ^ " refinable implies factory")
          true
          (impl_name e <> None))
    (Specreg.all ())

let test_duplicate_key_rejected () =
  let e = entry "ms" in
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Libspec.register: duplicate key ms") (fun () ->
      Libspec.register e)

let test_style_names_round_trip () =
  List.iter
    (fun s ->
      match Libspec.style_of_string (Libspec.style_name s) with
      | Some s' -> Alcotest.(check bool) "round trip" true (s = s')
      | None -> Alcotest.failf "style %s does not parse" (Libspec.style_name s))
    Libspec.all_styles

(* --- differential: generic checker vs the legacy compositions ------ *)

(* The per-kind composition the generic checker replaces, rebuilt from
   the primitive spec modules: the LATabs legs by the per-kind
   [Latabs_replay] oracle, the LAThist leg by the [Linearize] oracle
   (commit-order fast path, then its own search at the 200k budget the
   checker gave it).  The generic [Libspec.check] must give
   byte-identical violation lists. *)
let oracle_kind = function
  | Libspec.Queue -> Linearize.Queue
  | Libspec.Stack -> Linearize.Stack
  | Libspec.Deque -> Linearize.Deque

let legacy_check style kind g =
  let consistent, abstract =
    match (kind : Libspec.kind) with
    | Libspec.Queue -> (Queue_spec.consistent, Latabs_replay.queue)
    | Libspec.Stack -> (Stack_spec.consistent, Latabs_replay.stack)
    | Libspec.Deque -> (Ws_spec.consistent, Latabs_replay.deque)
  in
  match (style : Libspec.style) with
  | Libspec.So_abs -> abstract g
  | Libspec.Sc_abs -> abstract ~require_empty:true g
  | Libspec.Hb -> consistent g
  | Libspec.Hb_abs -> consistent g @ abstract g
  | Libspec.Hist -> (
      consistent g
      @
      let lkind = oracle_kind kind in
      if Linearize.commit_order_valid lkind g then []
      else
        match Linearize.search ~max_nodes:200_000 lkind g with
        | Linearize.Linearizable _ -> []
        | Linearize.Not_linearizable ->
            [ Check.v "lathist" "no linearisable total order exists" ]
        | Linearize.Gave_up ->
            [ Check.v "lathist-budget" "linearisation search gave up" ])

let render vs = List.map (fun v -> Format.asprintf "%a" Check.pp_violation v) vs

(* Compare every style on one graph.  Where the shared search finds a
   witness, the oracle must validate it; returns whether that witness
   reorders the commit order. *)
let compare_graph label kind g =
  List.iter
    (fun style ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s style %s" label (Libspec.style_name style))
        (render (legacy_check style kind g))
        (render (Libspec.check style (Libspec.of_kind kind) g)))
    Libspec.all_styles;
  match Libspec.search kind g with
  | { Libspec.outcome = Libspec.Witness order; committed; _ } ->
      let ids = List.map (fun (e : Event.data) -> e.Event.id) order in
      Alcotest.(check bool) (label ^ " witness validates") true
        (Linearize.validate (oracle_kind kind) g ids);
      not (List.equal ( == ) order (Array.to_list committed))
  | _ -> false

(* Run [compare_graph] on every object graph of every finished execution;
   returns how many graphs needed reordering. *)
let differential_battery ?(max_execs = 6_000) ?(reduce = Machine.RDpor) name
    kind sc =
  let execs = ref 0 and reordered = ref 0 in
  let sc =
    {
      sc with
      Explore.build =
        (fun m ->
          let judge = sc.Explore.build m in
          fun outcome ->
            (match outcome with
            | Machine.Finished _ ->
                incr execs;
                let label = Printf.sprintf "%s exec %d" name !execs in
                List.iter
                  (fun g -> if compare_graph label kind g then incr reordered)
                  (Registry.graphs (Machine.registry m))
            | _ -> ());
            judge outcome);
    }
  in
  let r = Explore.dfs ~max_execs ~reduce sc in
  Alcotest.(check bool) (name ^ " explored") true (r.Explore.executions > 0);
  Alcotest.(check bool) (name ^ " checked") true (!execs > 0);
  !reordered

let test_differential_queue () =
  ignore
    (differential_battery "ms wl" Libspec.Queue
       (Harness.queue_workload Msqueue.instantiate ~enqers:2 ~deqers:1 ~ops:1
          ()))

let test_differential_stack () =
  ignore
    (differential_battery "treiber wl" Libspec.Stack
       (Harness.stack_workload Treiber.instantiate ~pushers:2 ~poppers:1 ~ops:1
          ()))

(* The inputs where the commit order often fails and the search has to
   reorder: the Herlihy-Wing queue on the hist-hw benchmark's input
   (unreduced, its first 20k executions), and the Chase-Lev deque under
   the work-stealing client, whose steals take from the front. *)
let test_differential_hw () =
  let reordered =
    differential_battery ~max_execs:20_000 ~reduce:Machine.RNone "hw wl"
      Libspec.Queue
      (Harness.queue_workload Hwqueue.instantiate ~enqers:2 ~deqers:2 ~ops:1 ())
  in
  Alcotest.(check int) "hw graphs that need reordering" 12_997 reordered

let test_differential_chaselev () =
  let reordered =
    differential_battery "chaselev wl" Libspec.Deque
      (Ws_client.make ~tasks:2 ~thieves:1 ~steals:1 (Ws_client.fresh_stats ()))
  in
  Alcotest.(check bool) "some deque graphs need reordering" true (reordered > 0)

(* Nine pushes no lhb edge orders, then a pop of a value nobody pushed:
   no order exists, and proving it means trying every order of the
   pushes, past both searches' budgets. *)
let test_differential_gave_up () =
  let pushes =
    List.init 9 (fun i -> (i, Event.Push (Helpers.vi (i + 1)), [], i + 1))
  in
  let g =
    Helpers.mk_graph (pushes @ [ (9, Event.Pop (Helpers.vi 99), [], 10) ]) []
  in
  ignore (compare_graph "gave-up graph" Libspec.Stack g);
  Alcotest.(check bool) "LAThist reports the exhausted budget" true
    (List.mem "lathist-budget"
       (List.map
          (fun (v : Check.violation) -> v.Check.cond)
          (Libspec.check Libspec.Hist Libspec.stack g)))

(* Random graphs the explorer never builds: events of every kind's
   vocabulary mixed (so some lie outside the replayed kind's), values that
   repeat, and so edges in any number between any events.  The LATabs legs
   must still give the oracle's violation lists, SC-DEQ on and off. *)
let gen_replay_case =
  QCheck.Gen.(
    let typ =
      let* v = map Helpers.vi (int_range 1 3) in
      oneofl
        [
          Event.Enq v; Event.Deq v; Event.EmpDeq; Event.Push v; Event.Pop v;
          Event.EmpPop; Event.Steal v; Event.EmpSteal;
        ]
    in
    let* kind = oneofl [ Libspec.Queue; Libspec.Stack; Libspec.Deque ] in
    let* n = int_range 1 8 in
    let* typs = list_repeat n typ in
    let* so =
      list_size (int_bound 6) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    return (kind, List.mapi (fun i t -> (i, t, [], i + 1)) typs, so))

let test_replay_random =
  Helpers.qtest
    (QCheck.Test.make ~count:2_000
       ~name:"check: generic = legacy LATabs replay on random graphs"
       (QCheck.make gen_replay_case) (fun (kind, events, so) ->
         let g = Helpers.mk_graph events so in
         List.for_all
           (fun style ->
             legacy_check style kind g
             = Libspec.check style (Libspec.of_kind kind) g)
           [ Libspec.So_abs; Libspec.Sc_abs ]))

(* --- registry smoke ------------------------------------------------ *)

let test_smoke_all_entries () =
  List.iter
    (fun (e : Libspec.entry) ->
      let r = Explore.dfs ~max_execs:8_000 ~reduce:Machine.RDpor (e.Libspec.smoke ()) in
      Alcotest.(check bool)
        (e.Libspec.key ^ " explored")
        true
        (r.Explore.executions > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s smoke %s" e.Libspec.key
           (if e.Libspec.expect_violation then "violates" else "clean"))
        e.Libspec.expect_violation
        (r.Explore.violations <> []))
    (Specreg.all ())

(* --- the spec object tops the ladder ------------------------------- *)

let test_spec_object_sc_queue () =
  let sc =
    Harness.queue_workload ~style:Libspec.Sc_abs (Specobj.queue ()) ~enqers:2
      ~deqers:1 ~ops:1 ()
  in
  let r = Explore.dfs ~max_execs:100_000 sc in
  Alcotest.(check bool) "explored" true r.Explore.complete;
  Alcotest.(check (list string)) "SC-abs holds" []
    (List.map
       (fun (f : Explore.failure) -> f.Explore.message)
       r.Explore.violations)

let test_spec_object_sc_stack () =
  let sc =
    Harness.stack_workload ~style:Libspec.Sc_abs (Specobj.stack ()) ~pushers:2
      ~poppers:1 ~ops:1 ()
  in
  let r = Explore.dfs ~max_execs:100_000 sc in
  Alcotest.(check bool) "explored" true r.Explore.complete;
  Alcotest.(check (list string)) "SC-abs holds" []
    (List.map
       (fun (f : Explore.failure) -> f.Explore.message)
       r.Explore.violations)

(* --- refinement ----------------------------------------------------- *)

let test_refine_passes () =
  List.iter
    (fun key ->
      let r = Refine.run (entry key) in
      Alcotest.(check bool) (key ^ " refines") true r.Refine.ok;
      Alcotest.(check bool) (key ^ " search complete") true r.Refine.complete;
      List.iter
        (fun (c : Refine.client_result) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s spec side exhaustive (%s)" key c.Refine.client)
            true c.Refine.spec_complete)
        r.Refine.clients)
    [ "ms"; "treiber"; "hw" ]

let test_refine_msweak_fails () =
  let r = Refine.run (entry "ms-weak") in
  Alcotest.(check bool) "ms-weak does not refine" false r.Refine.ok

let suite =
  [
    Alcotest.test_case "registry: every factory registered" `Quick
      test_all_factories_registered;
    Alcotest.test_case "registry: keys unique, payloads consistent" `Quick
      test_keys_unique_and_consistent;
    Alcotest.test_case "registry: duplicate keys rejected" `Quick
      test_duplicate_key_rejected;
    Alcotest.test_case "registry: style names round-trip" `Quick
      test_style_names_round_trip;
    Alcotest.test_case "check: generic = legacy on ms executions" `Slow
      test_differential_queue;
    Alcotest.test_case "check: generic = legacy on treiber executions" `Slow
      test_differential_stack;
    Alcotest.test_case "check: generic = legacy on hw executions" `Slow
      test_differential_hw;
    Alcotest.test_case "check: generic = legacy on chaselev executions" `Slow
      test_differential_chaselev;
    Alcotest.test_case "check: generic = legacy when the search gives up"
      `Slow test_differential_gave_up;
    test_replay_random;
    Alcotest.test_case "registry: smoke workloads (broken fixtures violate)"
      `Slow test_smoke_all_entries;
    Alcotest.test_case "specobj: queue satisfies SC-abs" `Slow
      test_spec_object_sc_queue;
    Alcotest.test_case "specobj: stack satisfies SC-abs" `Slow
      test_spec_object_sc_stack;
    Alcotest.test_case "refine: ms/treiber/hw included in spec object" `Slow
      test_refine_passes;
    Alcotest.test_case "refine: ms-weak does not refine" `Slow
      test_refine_msweak_fails;
  ]
