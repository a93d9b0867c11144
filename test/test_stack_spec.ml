open Compass_rmc
open Compass_event
open Compass_spec
open Helpers

(* StackConsistent on hand-built graphs. *)

let push id v preds step = (id, Event.Push (vi v), preds, step)
let pop id v preds step = (id, Event.Pop (vi v), preds, step)
let emppop id preds step = (id, Event.EmpPop, preds, step)
let conds vs = List.map (fun (c : Check.violation) -> c.Check.cond) vs
let has_cond c vs = List.mem c (conds vs)

(* The LATabs legs: the commit-order replay, without and with SC-DEQ. *)
let abs g = Libspec.check Libspec.So_abs Libspec.stack g
let sc_abs g = Libspec.check Libspec.Sc_abs Libspec.stack g

let test_good_lifo () =
  (* push 1, push 2, pop 2, pop 1 — sequential LIFO. *)
  let g =
    mk_graph
      [
        push 0 1 [] 1;
        push 1 2 [ 0 ] 2;
        pop 2 2 [ 0; 1 ] 3;
        pop 3 1 [ 0; 1; 2 ] 4;
      ]
      [ (1, 2); (0, 3) ]
  in
  Alcotest.(check (list string)) "consistent" [] (conds (Stack_spec.consistent g));
  Alcotest.(check (list string)) "abs ok" [] (conds (abs g))

let test_matches () =
  let g = mk_graph [ push 0 1 [] 1; pop 1 2 [ 0 ] 2 ] [ (0, 1) ] in
  Alcotest.(check bool) "value mismatch" true
    (has_cond "stack-matches" (Stack_spec.consistent g))

let test_uniq () =
  let g =
    mk_graph
      [ push 0 1 [] 1; pop 1 1 [ 0 ] 2; pop 2 1 [ 0; 1 ] 3 ]
      [ (0, 1); (0, 2) ]
  in
  Alcotest.(check bool) "popped twice" true
    (has_cond "stack-uniq" (Stack_spec.consistent g))

let test_lifo_violation () =
  (* pop takes e0 although e1 (pushed after e0, visible to the pop) is
     unpopped: FIFO behaviour, LIFO violation. *)
  let g =
    mk_graph
      [ push 0 1 [] 1; push 1 2 [ 0 ] 2; pop 2 1 [ 0; 1 ] 3 ]
      [ (0, 2) ]
  in
  Alcotest.(check bool) "lifo violation" true
    (has_cond "stack-lifo" (Stack_spec.consistent g))

let test_lifo_ok_concurrent () =
  (* Concurrent pushes: no lhb between them, either pop order fine. *)
  let g =
    mk_graph
      [ push 0 1 [] 1; push 1 2 [] 2; pop 2 1 [ 0 ] 3; pop 3 2 [ 1; 2 ] 4 ]
      [ (0, 2); (1, 3) ]
  in
  Alcotest.(check (list string)) "weak lifo allows it" []
    (conds (Stack_spec.consistent g))

let test_emppop_violation () =
  let g = mk_graph [ push 0 1 [] 1; emppop 1 [ 0 ] 2 ] [] in
  Alcotest.(check bool) "emppop violation" true
    (has_cond "stack-emppop" (Stack_spec.consistent g))

let test_emppop_ok () =
  let g =
    mk_graph
      [ push 0 1 [] 1; pop 1 1 [ 0 ] 2; emppop 2 [ 0; 1 ] 3 ]
      [ (0, 1) ]
  in
  Alcotest.(check (list string)) "consistent" [] (conds (Stack_spec.consistent g))

(* Same-step (eliminated) pairs: push at (s,0), pop at (s,1), mutually
   within one commit step, as the elimination stack produces. *)
let test_eliminated_pair () =
  let g = Graph.create ~obj:0 ~name:"es" in
  let commit id typ sub logview =
    Graph.commit g
      {
        Event.id;
        obj = 0;
        typ;
        tid = 0;
        view = View.bot;
        logview = Lview.of_list logview;
        cix = (5, sub);
      }
  in
  commit 0 (Event.Push (vi 9)) 0 [ 0 ];
  commit 1 (Event.Pop (vi 9)) 1 [ 0; 1 ];
  Graph.add_so g ~from:0 ~into:1;
  Alcotest.(check (list string)) "eliminated pair consistent" []
    (conds (Stack_spec.consistent g));
  Alcotest.(check (list string)) "abs replay fine" []
    (conds (abs g))

let test_abs_lifo () =
  (* Commit order: push1 push2 pop1 — top is 2. *)
  let g =
    mk_graph
      [ push 0 1 [] 1; push 1 2 [ 0 ] 2; pop 2 1 [ 0; 1 ] 3 ]
      [ (0, 2) ]
  in
  Alcotest.(check bool) "latabs-lifo" true
    (has_cond "latabs-lifo" (abs g))

let test_abs_empty_modes () =
  let g = mk_graph [ push 0 1 [] 1; emppop 1 [] 2 ] [] in
  Alcotest.(check (list string)) "RMC lenient" []
    (conds (abs g));
  Alcotest.(check bool) "SC strict" true
    (has_cond "latabs-empty" (sc_abs g))

let test_abs_pop_on_empty () =
  let g = mk_graph [ pop 0 1 [] 1; push 1 1 [] 2 ] [ (1, 0) ] in
  Alcotest.(check bool) "pop before any push" true
    (has_cond "latabs-nonempty" (abs g))

let suite =
  [
    Alcotest.test_case "sequential LIFO is consistent" `Quick test_good_lifo;
    Alcotest.test_case "stack-matches" `Quick test_matches;
    Alcotest.test_case "stack-uniq" `Quick test_uniq;
    Alcotest.test_case "stack-lifo violation" `Quick test_lifo_violation;
    Alcotest.test_case "weak lifo allows concurrent pushes" `Quick
      test_lifo_ok_concurrent;
    Alcotest.test_case "stack-emppop violation" `Quick test_emppop_violation;
    Alcotest.test_case "emppop after pop" `Quick test_emppop_ok;
    Alcotest.test_case "eliminated same-step pair" `Quick test_eliminated_pair;
    Alcotest.test_case "latabs-lifo" `Quick test_abs_lifo;
    Alcotest.test_case "latabs empty modes" `Quick test_abs_empty_modes;
    Alcotest.test_case "latabs pop on empty" `Quick test_abs_pop_on_empty;
  ]
