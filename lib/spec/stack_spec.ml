open Compass_rmc
open Compass_event

(* StackConsistent — the LIFO analogue of QueueConsistent (the paper gives
   the queue instance in Figure 2 and notes in Section 4.1 that "the key
   difference is the change from FIFO to LIFO in consistency"). *)

let check_matches g =
  List.fold_left
    (fun acc (e_id, d_id) ->
      let e = Graph.find g e_id and d = Graph.find g d_id in
      match (e.Event.typ, d.Event.typ) with
      | Event.Push v, Event.Pop w when Value.equal v w -> acc
      | _ ->
          Check.v "stack-matches" "so pair (%a, %a) mismatched" Event.pp e
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
            Check.v "stack-uniq" "push %a popped %d times" Event.pp e outs
            :: !acc)
    events;
  List.iter
    (fun (d : Event.data) ->
      if Event.is_pop d then
        let ins = Check.in_deg so d.id in
        if
          not (ins = 1 && Event.is_push (Graph.find g (Check.in_src so d.id)))
        then
          acc :=
            Check.v "stack-uniq" "pop %a matched %d times (need exactly 1 push)"
              Event.pp d ins
            :: !acc)
    events;
  List.iter
    (fun (d : Event.data) ->
      if
        Event.is_emppop d
        && (Check.in_deg so d.id > 0 || Check.out_deg so d.id > 0)
      then
        acc := Check.v "stack-uniq" "empty pop %a has so edges" Event.pp d :: !acc)
    events;
  !acc

(* STACK-LIFO: if pop d takes push e, then any push e' with
   e -lhb-> e' -lhb-> d (pushed after e, visible to d) must already be
   popped when d commits, by a pop d' that d does not happen before. *)
let check_lifo g =
  let so = Graph.so g in
  let events = Graph.events g in
  List.fold_left
    (fun acc (e_id, d_id) ->
      let d = Graph.find g d_id in
      if not (Event.is_pop d) then acc
      else
        let e = Graph.find g e_id in
        List.fold_left
          (fun acc (e' : Event.data) ->
            if
              Event.is_push e' && e'.id <> e_id
              && Lview.mem e_id e'.Event.logview
              && e'.id <> d_id
              && Lview.mem e'.id d.Event.logview
            then
              let popped_before =
                List.exists
                  (fun (f, t) ->
                    f = e'.id
                    &&
                    let d' = Graph.find g t in
                    Check.before d' d
                    && (t = d_id || not (Lview.mem d_id d'.Event.logview)))
                  so
              in
              if popped_before then acc
              else
                Check.v "stack-lifo"
                  "%a pushed after %a and visible to %a, yet unpopped when \
                   %a pops %a"
                  Event.pp e' Event.pp e Event.pp d Event.pp d Event.pp e
                :: acc
            else acc)
          acc events)
    [] so

(* STACK-EMPPOP: an empty pop is justified only if every push that happens
   before it had already been popped. *)
let check_emppop g =
  let so = Graph.so g in
  let events = Graph.events g in
  List.fold_left
    (fun acc (d : Event.data) ->
      if not (Event.is_emppop d) then acc
      else
        List.fold_left
          (fun acc (e : Event.data) ->
            if
              Event.is_push e && e.id <> d.id
              && Lview.mem e.id d.Event.logview
            then
              let consumed =
                List.exists
                  (fun (f, t) -> f = e.id && Check.before (Graph.find g t) d)
                  so
              in
              if consumed then acc
              else
                Check.v "stack-emppop"
                  "empty pop %a although %a happens-before it and is unpopped"
                  Event.pp d Event.pp e
                :: acc
            else acc)
          acc events)
    [] events

let consistent g =
  check_matches g @ check_uniq g @ Check.so_lhb "stack" g @ check_lifo g
  @ check_emppop g @ Check.lhb_cix g
