open Compass_rmc
open Compass_event
open Compass_spec
open Helpers

(* WsDequeConsistent on hand-built graphs (experiment E8's spec). *)

let push id v preds step = (id, Event.Push (vi v), preds, step)
let steal id v preds step = (id, Event.Steal (vi v), preds, step)
let emppop id preds step = (id, Event.EmpPop, preds, step)
let empsteal id preds step = (id, Event.EmpSteal, preds, step)
let conds vs = List.map (fun (c : Check.violation) -> c.Check.cond) vs
let has_cond c vs = List.mem c (conds vs)

(* The LATabs leg: the commit-order replay of the deque. *)
let abs g = Libspec.check Libspec.So_abs Libspec.deque g

(* Like mk_graph but with explicit tids (owner vs thieves matter here). *)
let mk_graph_tid events so =
  let g = Graph.create ~obj:0 ~name:"dq" in
  List.iter
    (fun (id, typ, tid, lhb_preds, step) ->
      Graph.commit g
        {
          Event.id;
          obj = 0;
          typ;
          tid;
          view = View.bot;
          logview = Lview.of_list (id :: lhb_preds);
          cix = (step, 0);
        })
    events;
  List.iter (fun (a, b) -> Graph.add_so g ~from:a ~into:b) so;
  g

let owner_pop id v preds step = (id, Event.Pop (vi v), 0, preds, step)
let owner_push id v preds step = (id, Event.Push (vi v), 0, preds, step)
let thief_steal id v preds step = (id, Event.Steal (vi v), 1, preds, step)

let test_good () =
  (* Owner pushes 1, 2; pops 2; thief steals 1. *)
  let g =
    mk_graph_tid
      [
        owner_push 0 1 [] 1;
        owner_push 1 2 [ 0 ] 2;
        owner_pop 2 2 [ 0; 1 ] 3;
        thief_steal 3 1 [ 0 ] 4;
      ]
      [ (1, 2); (0, 3) ]
  in
  Alcotest.(check (list string)) "consistent" [] (conds (Ws_spec.consistent g));
  Alcotest.(check (list string)) "abs ok" [] (conds (abs g))

let test_matches () =
  let g =
    mk_graph_tid [ owner_push 0 1 [] 1; thief_steal 1 9 [ 0 ] 2 ] [ (0, 1) ]
  in
  Alcotest.(check bool) "mismatch" true (has_cond "ws-matches" (Ws_spec.consistent g))

let test_uniq_double_take () =
  (* The double-take the SC fences prevent: pop and steal both take e0. *)
  let g =
    mk_graph_tid
      [
        owner_push 0 7 [] 1;
        owner_pop 1 7 [ 0 ] 2;
        thief_steal 2 7 [ 0 ] 3;
      ]
      [ (0, 1); (0, 2) ]
  in
  Alcotest.(check bool) "taken twice" true
    (has_cond "ws-uniq" (Ws_spec.consistent g))

let test_owner_discipline () =
  (* A push from a second thread breaks the single-owner discipline. *)
  let g =
    mk_graph_tid
      [ owner_push 0 1 [] 1; (1, Event.Push (vi 2), 1, [ 0 ], 2) ]
      []
  in
  Alcotest.(check bool) "two owners" true
    (has_cond "ws-owner" (Ws_spec.consistent g))

let test_steal_order () =
  (* Steals against push order. *)
  let g =
    mk_graph_tid
      [
        owner_push 0 1 [] 1;
        owner_push 1 2 [ 0 ] 2;
        thief_steal 2 2 [ 0; 1 ] 3;
        thief_steal 3 1 [ 0; 1; 2 ] 4;
      ]
      [ (1, 2); (0, 3) ]
  in
  Alcotest.(check bool) "steal order violated" true
    (has_cond "ws-steal-order" (Ws_spec.consistent g))

let test_owner_lifo () =
  (* The owner pops e0 while a newer visible push e1 is untaken. *)
  let g =
    mk_graph_tid
      [
        owner_push 0 1 [] 1;
        owner_push 1 2 [ 0 ] 2;
        owner_pop 2 1 [ 0; 1 ] 3;
      ]
      [ (0, 2) ]
  in
  Alcotest.(check bool) "owner lifo violated" true
    (has_cond "ws-owner-lifo" (Ws_spec.consistent g))

let test_empty_never_taken () =
  (* A push that happens before the empty steal and is never taken. *)
  let g =
    mk_graph_tid
      [ owner_push 0 1 [] 1; (1, Event.EmpSteal, 1, [ 0 ], 2) ]
      []
  in
  Alcotest.(check bool) "lost element" true
    (has_cond "ws-empty" (Ws_spec.consistent g))

let test_empty_later_take_ok () =
  (* The reservation case: the justifying pop commits AFTER the empty
     steal — allowed for deques (unlike the queue's EMPDEQ). *)
  let g =
    mk_graph_tid
      [
        owner_push 0 1 [] 1;
        (1, Event.EmpSteal, 1, [ 0 ], 2);
        owner_pop 2 1 [ 0 ] 3;
      ]
      [ (0, 2) ]
  in
  Alcotest.(check (list string)) "reservation-justified empty" []
    (conds (Ws_spec.consistent g))

let test_abs_replay () =
  (* Commit-order deque replay: pop takes the back, steal the front. *)
  let g =
    mk_graph_tid
      [
        owner_push 0 1 [] 1;
        owner_push 1 2 [ 0 ] 2;
        thief_steal 2 1 [ 0 ] 3;
        owner_pop 3 2 [ 0; 1 ] 4;
      ]
      [ (0, 2); (1, 3) ]
  in
  Alcotest.(check (list string)) "abs replay ok" []
    (conds (abs g));
  (* A steal taking the back instead of the front. *)
  let bad =
    mk_graph_tid
      [
        owner_push 0 1 [] 1;
        owner_push 1 2 [ 0 ] 2;
        thief_steal 2 2 [ 0; 1 ] 3;
      ]
      [ (1, 2) ]
  in
  Alcotest.(check bool) "steal from the back flagged" true
    (has_cond "latabs-ws-steal" (abs bad))

let test_linearize_deque () =
  (* The reservation shape is linearisable by reordering: push,
     empty-steal, pop — the empty steal moves. *)
  let g =
    mk_graph_tid
      [
        owner_push 0 1 [] 1;
        (1, Event.EmpSteal, 1, [], 2);
        owner_pop 2 1 [ 0 ] 3;
      ]
      [ (0, 2) ]
  in
  Alcotest.(check bool) "commit order invalid" false
    (Linearize.commit_order_valid Linearize.Deque g);
  (match Linearize.search Linearize.Deque g with
  | Linearize.Linearizable o ->
      Alcotest.(check bool) "validates" true (Linearize.validate Linearize.Deque g o)
  | _ -> Alcotest.fail "expected linearizable");
  (* The shared commit-point search finds a witness too, moving the empty
     steal off the commit order; the oracle validates it. *)
  (match Libspec.search Libspec.Deque g with
  | { Libspec.outcome = Libspec.Witness order; committed; _ } ->
      Alcotest.(check bool) "shared search reorders" false
        (List.equal ( == ) order (Array.to_list committed));
      Alcotest.(check bool) "shared witness validates" true
        (Linearize.validate Linearize.Deque g
           (List.map (fun (e : Event.data) -> e.Event.id) order))
  | _ -> Alcotest.fail "shared search: expected linearizable");
  (* Styles dispatch covers Deque, LAThist included. *)
  Alcotest.(check bool) "styles hist" true
    (Libspec.check Libspec.Hist Libspec.deque g = [])

let suite =
  [
    Alcotest.test_case "conforming deque graph" `Quick test_good;
    Alcotest.test_case "ws-matches" `Quick test_matches;
    Alcotest.test_case "ws-uniq (double take)" `Quick test_uniq_double_take;
    Alcotest.test_case "ws-owner discipline" `Quick test_owner_discipline;
    Alcotest.test_case "ws-steal-order" `Quick test_steal_order;
    Alcotest.test_case "ws-owner-lifo" `Quick test_owner_lifo;
    Alcotest.test_case "ws-empty: lost element" `Quick test_empty_never_taken;
    Alcotest.test_case "ws-empty: reservation allowed" `Quick
      test_empty_later_take_ok;
    Alcotest.test_case "deque abstract replay" `Quick test_abs_replay;
    Alcotest.test_case "deque linearisation" `Quick test_linearize_deque;
  ]
