open Compass_rmc
open Compass_event

(* WsDequeConsistent — consistency conditions for single-owner
   work-stealing deques, in the same Yacovet/Compass style as
   QueueConsistent and StackConsistent.  Work-stealing queues are the
   paper's named future work (Section 6, citing Chase-Lev and Le et al.);
   experiment E8 applies the framework to them.

   Events: the owner's [Push v] / [Pop v] / [EmpPop] and the thieves'
   [Steal v] / [EmpSteal].  Conditions:

   - WS-MATCHES / WS-UNIQ:  so matches each push to at most one taker
     (owner pop or steal), values agree, every successful taker takes
     exactly one push;
   - WS-OWNER:   pushes, pops and empty-pops all come from one thread (the
     owner) — deque discipline;
   - WS-STEAL-ORDER:  steals take pushes in push order: the top index only
     grows, so among stolen elements the steal commit order agrees with
     the (owner-sequential, hence total) push order;
   - WS-OWNER-LIFO:  the owner pops the *newest* untaken push it can see:
     if pop d takes e and e -lhb-> e' -lhb-> d for a push e', then e' was
     already taken when d committed;
   - WS-EMPTY:   an empty pop/steal is justified only if every push that
     happens before it was already taken (the EMPDEQ analogue). *)

let pushes g = List.filter Event.is_push (Graph.events g)
let is_taker e = Event.is_pop e || Event.is_steal e
let is_empty e = Event.is_emppop e || Event.is_empsteal e

let taker_value (e : Event.data) =
  match e.Event.typ with
  | Event.Pop v | Event.Steal v -> Some v
  | _ -> None

let check_matches g =
  List.fold_left
    (fun acc (e_id, d_id) ->
      let e = Graph.find g e_id and d = Graph.find g d_id in
      match (e.Event.typ, taker_value d) with
      | Event.Push v, Some w when Value.equal v w -> acc
      | _ ->
          Check.v "ws-matches" "so pair (%a, %a) mismatched" Event.pp e
            Event.pp d
          :: acc)
    [] (Graph.so g)

let check_uniq g =
  let so = Graph.so g in
  let events = Graph.events g in
  let acc = ref [] in
  List.iter
    (fun (e : Event.data) ->
      if Event.is_push e then
        let outs = Check.out_deg so e.id in
        if outs > 1 then
          acc :=
            Check.v "ws-uniq" "push %a taken %d times" Event.pp e outs :: !acc)
    events;
  List.iter
    (fun (d : Event.data) ->
      if is_taker d then
        let ins = Check.in_deg so d.id in
        if
          not (ins = 1 && Event.is_push (Graph.find g (Check.in_src so d.id)))
        then
          acc :=
            Check.v "ws-uniq" "taker %a matched %d times (need exactly 1 push)"
              Event.pp d ins
            :: !acc)
    events;
  List.iter
    (fun (d : Event.data) ->
      if is_empty d && (Check.in_deg so d.id > 0 || Check.out_deg so d.id > 0)
      then acc := Check.v "ws-uniq" "empty op %a has so edges" Event.pp d :: !acc)
    events;
  !acc

let check_owner g =
  let owner_events =
    List.filter
      (fun (e : Event.data) ->
        Event.is_push e || Event.is_pop e || Event.is_emppop e)
      (Graph.events g)
  in
  match owner_events with
  | [] -> []
  | first :: _ ->
      List.filter_map
        (fun (e : Event.data) ->
          if e.Event.tid <> first.Event.tid then
            Some
              (Check.v "ws-owner" "%a is an owner operation on thread %d (owner is %d)"
                 Event.pp e e.Event.tid first.Event.tid)
          else None)
        owner_events

(* Steals take pushes in push order. *)
let check_steal_order g =
  let steal_pairs =
    List.filter_map
      (fun (e_id, d_id) ->
        let d = Graph.find g d_id in
        if Event.is_steal d then Some (Graph.find g e_id, d) else None)
      (Graph.so g)
  in
  List.fold_left
    (fun acc (e1, s1) ->
      List.fold_left
        (fun acc (e2, s2) ->
          if
            Check.before s1 s2
            && (not (Check.before e1 e2))
            && e1.Event.id <> e2.Event.id
          then
            Check.v "ws-steal-order"
              "steal %a (of %a) before steal %a (of %a) against push order"
              Event.pp s1 Event.pp e1 Event.pp s2 Event.pp e2
            :: acc
          else acc)
        acc steal_pairs)
    [] steal_pairs

(* The owner pops the newest untaken push visible to it. *)
let check_owner_lifo g =
  let so = Graph.so g in
  List.fold_left
    (fun acc (e_id, d_id) ->
      let d = Graph.find g d_id in
      if not (Event.is_pop d) then acc
      else
        let e = Graph.find g e_id in
        List.fold_left
          (fun acc (e' : Event.data) ->
            if
              e'.id <> e_id
              && Graph.lhb g ~before:e_id ~after:e'.id
              && Graph.lhb g ~before:e'.id ~after:d_id
            then
              let taken_before =
                List.exists
                  (fun (f, t) -> f = e'.id && Check.before (Graph.find g t) d)
                  so
              in
              Check.ensure acc "ws-owner-lifo" taken_before (fun () ->
                  Format.asprintf
                    "%a pushed after %a and visible to pop %a, yet untaken"
                    Event.pp e' Event.pp e Event.pp d)
            else acc)
          acc (pushes g))
    [] so

(* WS-EMPTY is deliberately weaker than the queue's EMPDEQ: the justifying
   take need NOT have committed before the empty operation.  The owner's
   bottom decrement *reserves* the element before its pop commits, so a
   thief that synchronises mid-pop (through the SC fences) correctly
   observes emptiness while the push is, at that instant, still untaken —
   the pop commits moments later, and LAThist reorders the empty steal
   after it.  Requiring commit-order-prior justification (as for queues)
   is refuted by the model checker; this is a concrete instance of the
   per-library tailoring of consistency conditions that Yacovet/Compass
   is designed for.  A push that happens before the empty op and is NEVER
   taken remains a violation. *)
let check_empty g =
  let so = Graph.so g in
  List.fold_left
    (fun acc (d : Event.data) ->
      List.fold_left
        (fun acc (e : Event.data) ->
          if Graph.lhb g ~before:e.id ~after:d.id then
            let taken = List.exists (fun (f, _) -> f = e.id) so in
            Check.ensure acc "ws-empty" taken (fun () ->
                Format.asprintf
                  "empty op %a although push %a happens-before it and is \
                   never taken"
                  Event.pp d Event.pp e)
          else acc)
        acc (pushes g))
    [] (List.filter is_empty (Graph.events g))

let consistent g =
  check_matches g @ check_uniq g @ Check.so_lhb "ws" g @ check_owner g
  @ check_steal_order g @ check_owner_lifo g @ check_empty g
  @ Check.lhb_cix g
