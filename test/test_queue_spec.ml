open Compass_event
open Compass_spec
open Helpers

(* QueueConsistent on hand-built graphs: each condition is exercised with a
   conforming and a violating graph. *)

let enq id v preds step = (id, Event.Enq (vi v), preds, step)
let deq id v preds step = (id, Event.Deq (vi v), preds, step)
let empdeq id preds step = (id, Event.EmpDeq, preds, step)

let conds vs = List.map (fun (c : Check.violation) -> c.Check.cond) vs

let has_cond c vs = List.mem c (conds vs)

(* The LATabs legs: the commit-order replay, without and with SC-DEQ. *)
let abs g = Libspec.check Libspec.So_abs Libspec.queue g
let sc_abs g = Libspec.check Libspec.Sc_abs Libspec.queue g

let test_good_graph () =
  (* Two enqueues by one thread, dequeued FIFO. *)
  let g =
    mk_graph
      [
        enq 0 1 [] 1;
        enq 1 2 [ 0 ] 2;
        deq 2 1 [ 0; 1 ] 3;
        deq 3 2 [ 0; 1; 2 ] 4;
      ]
      [ (0, 2); (1, 3) ]
  in
  Alcotest.(check (list string)) "consistent" [] (conds (Queue_spec.consistent g));
  Alcotest.(check (list string)) "abs ok" [] (conds (abs g))

let test_matches () =
  let g = mk_graph [ enq 0 1 [] 1; deq 1 2 [ 0 ] 2 ] [ (0, 1) ] in
  Alcotest.(check bool) "value mismatch" true
    (has_cond "queue-matches" (Queue_spec.consistent g))

let test_uniq_double_dequeue () =
  let g =
    mk_graph
      [ enq 0 1 [] 1; deq 1 1 [ 0 ] 2; deq 2 1 [ 0; 1 ] 3 ]
      [ (0, 1); (0, 2) ]
  in
  Alcotest.(check bool) "element dequeued twice" true
    (has_cond "queue-uniq" (Queue_spec.consistent g))

let test_uniq_unmatched_dequeue () =
  let g = mk_graph [ deq 0 1 [] 1 ] [] in
  Alcotest.(check bool) "dequeue with no enqueue" true
    (has_cond "queue-uniq" (Queue_spec.consistent g))

let test_so_requires_lhb () =
  (* so edge without logview membership. *)
  let g = mk_graph [ enq 0 1 [] 1; deq 1 1 [] 2 ] [ (0, 1) ] in
  Alcotest.(check bool) "so not in lhb" true
    (has_cond "queue-so-lhb" (Queue_spec.consistent g))

let test_so_commit_order () =
  (* Dequeue committed before its enqueue. *)
  let g = mk_graph [ enq 0 1 [] 5; deq 1 1 [ 0 ] 2 ] [ (0, 1) ] in
  Alcotest.(check bool) "so against commit order" true
    (has_cond "queue-so-cix" (Queue_spec.consistent g))

let test_fifo_violation () =
  (* e0 -lhb-> e1, both visible; d dequeues e1 while e0 undequeued. *)
  let g =
    mk_graph
      [ enq 0 1 [] 1; enq 1 2 [ 0 ] 2; deq 2 2 [ 0; 1 ] 3 ]
      [ (1, 2) ]
  in
  Alcotest.(check bool) "fifo violation" true
    (has_cond "queue-fifo" (Queue_spec.consistent g))

let test_fifo_ok_unordered_enqueues () =
  (* Concurrent enqueues (no lhb between them): either dequeue order is
     allowed — the paper's weak FIFO. *)
  let g =
    mk_graph
      [ enq 0 1 [] 1; enq 1 2 [] 2; deq 2 2 [ 1 ] 3; deq 3 1 [ 0; 2 ] 4 ]
      [ (1, 2); (0, 3) ]
  in
  Alcotest.(check (list string)) "weak fifo allows it" []
    (conds (Queue_spec.consistent g))

let test_empdeq_violation () =
  (* An enqueue happens-before the empty dequeue and is undequeued. *)
  let g = mk_graph [ enq 0 1 [] 1; empdeq 1 [ 0 ] 2 ] [] in
  Alcotest.(check bool) "empdeq violation" true
    (has_cond "queue-empdeq" (Queue_spec.consistent g))

let test_empdeq_ok_after_consumption () =
  let g =
    mk_graph
      [ enq 0 1 [] 1; deq 1 1 [ 0 ] 2; empdeq 2 [ 0; 1 ] 3 ]
      [ (0, 1) ]
  in
  Alcotest.(check (list string)) "empdeq fine once consumed" []
    (conds (Queue_spec.consistent g))

let test_empdeq_ok_unseen_enqueue () =
  (* The enqueue is NOT in the empty dequeue's logical view: allowed (the
     weak behaviour the RMC spec permits). *)
  let g = mk_graph [ enq 0 1 [] 1; empdeq 1 [] 2 ] [] in
  Alcotest.(check (list string)) "unseen enqueue allows empty" []
    (conds (Queue_spec.consistent g))

let test_empdeq_needs_prior_consumption () =
  (* The matching dequeue commits AFTER the empty dequeue: still a
     violation at the empty dequeue's commit point. *)
  let g =
    mk_graph
      [ enq 0 1 [] 1; empdeq 1 [ 0 ] 2; deq 2 1 [ 0 ] 3 ]
      [ (0, 2) ]
  in
  Alcotest.(check bool) "later consumption does not justify" true
    (has_cond "queue-empdeq" (Queue_spec.consistent g))

let test_lhb_cix () =
  (* An event observing an event committed in a later step. *)
  let g = mk_graph [ enq 0 1 [ 1 ] 1; enq 1 2 [] 5 ] [] in
  Alcotest.(check bool) "lhb against commit order" true
    (has_cond "lhb-cix" (Queue_spec.consistent g))

(* -- abstract states --------------------------------------------------------- *)

let test_abs_fifo_violation () =
  (* Commit order: enq 1, enq 2, deq 2 — head at the dequeue is 1. *)
  let g =
    mk_graph
      [ enq 0 1 [] 1; enq 1 2 [ 0 ] 2; deq 2 2 [ 0; 1 ] 3 ]
      [ (1, 2) ]
  in
  Alcotest.(check bool) "latabs-fifo" true
    (has_cond "latabs-fifo" (abs g))

let test_abs_empty_default_lenient () =
  let g = mk_graph [ enq 0 1 [] 1; empdeq 1 [] 2 ] [] in
  Alcotest.(check (list string)) "RMC abs allows non-empty empdeq" []
    (conds (abs g));
  Alcotest.(check bool) "SC abs rejects it" true
    (has_cond "latabs-empty" (sc_abs g))

let test_abs_deq_on_empty () =
  let g = mk_graph [ deq 0 1 [] 1; enq 1 1 [] 2 ] [ (1, 0) ] in
  Alcotest.(check bool) "dequeue before any enqueue" true
    (has_cond "latabs-nonempty" (abs g))

let test_abs_match_respects_so () =
  (* Two enqueues of the SAME value; the dequeue so-matches the second but
     the abstract head is the first. *)
  let g =
    mk_graph
      [ enq 0 7 [] 1; enq 1 7 [ 0 ] 2; deq 2 7 [ 0; 1 ] 3 ]
      [ (1, 2) ]
  in
  Alcotest.(check bool) "so-mismatched head" true
    (has_cond "latabs-match" (abs g))

(* Styles dispatch. *)
let test_styles_check () =
  let good =
    mk_graph [ enq 0 1 [] 1; deq 1 1 [ 0 ] 2 ] [ (0, 1) ]
  in
  List.iter
    (fun style ->
      Alcotest.(check (list string))
        (Libspec.style_name style) []
        (conds (Libspec.check style Libspec.queue good)))
    Libspec.all_styles

let test_tally () =
  let t = Styles.fresh_tally () in
  Styles.tally_one t [];
  Styles.tally_one t [ Check.v "x" "boom" ];
  Alcotest.(check int) "execs" 2 (Atomic.get t.Styles.execs);
  Alcotest.(check int) "failed" 1 (Atomic.get t.Styles.failed);
  Alcotest.(check bool) "not satisfied" false (Styles.satisfied t)

let suite =
  [
    Alcotest.test_case "conforming graph" `Quick test_good_graph;
    Alcotest.test_case "queue-matches" `Quick test_matches;
    Alcotest.test_case "queue-uniq (double dequeue)" `Quick test_uniq_double_dequeue;
    Alcotest.test_case "queue-uniq (unmatched dequeue)" `Quick
      test_uniq_unmatched_dequeue;
    Alcotest.test_case "so requires lhb" `Quick test_so_requires_lhb;
    Alcotest.test_case "so respects commit order" `Quick test_so_commit_order;
    Alcotest.test_case "queue-fifo violation" `Quick test_fifo_violation;
    Alcotest.test_case "weak fifo allows unordered enqueues" `Quick
      test_fifo_ok_unordered_enqueues;
    Alcotest.test_case "queue-empdeq violation" `Quick test_empdeq_violation;
    Alcotest.test_case "empdeq fine once consumed" `Quick
      test_empdeq_ok_after_consumption;
    Alcotest.test_case "empdeq fine when enqueue unseen" `Quick
      test_empdeq_ok_unseen_enqueue;
    Alcotest.test_case "empdeq needs PRIOR consumption" `Quick
      test_empdeq_needs_prior_consumption;
    Alcotest.test_case "lhb respects commit order" `Quick test_lhb_cix;
    Alcotest.test_case "latabs-fifo" `Quick test_abs_fifo_violation;
    Alcotest.test_case "latabs empty: RMC lenient, SC strict" `Quick
      test_abs_empty_default_lenient;
    Alcotest.test_case "latabs dequeue on empty" `Quick test_abs_deq_on_empty;
    Alcotest.test_case "latabs match respects so" `Quick test_abs_match_respects_so;
    Alcotest.test_case "styles dispatch" `Quick test_styles_check;
    Alcotest.test_case "tally accounting" `Quick test_tally;
  ]
