open Compass_rmc
open Compass_event

(* QueueConsistent — the paper's consistency conditions for queues
   (Figure 2, bottom right), checked on a concrete execution's graph.

   All conditions are stated against the graph *at the commit point* of the
   event under inspection; operationally that is the commit-index prefix,
   so quantifiers over "already committed" events are bounded by [cix]. *)

(* QUEUE-MATCHES: a dequeue returns the value its matched enqueue inserted. *)
let check_matches g =
  List.fold_left
    (fun acc (e_id, d_id) ->
      let e = Graph.find g e_id and d = Graph.find g d_id in
      match (e.Event.typ, d.Event.typ) with
      | Event.Enq v, Event.Deq w when Value.equal v w -> acc
      | _ ->
          Check.v "queue-matches" "so pair (%a, %a) mismatched" Event.pp e
            Event.pp d
          :: acc)
    [] (Graph.so g)

(* QUEUE-UNIQ: so matches enqueues to dequeues bijectively — an element is
   dequeued at most once, and every successful dequeue dequeues exactly one
   enqueue (footnote 5 of the paper). *)
let check_uniq g =
  let so = Graph.so g in
  let events = Graph.events g in
  let acc = ref [] in
  List.iter
    (fun (e : Event.data) ->
      if Event.is_enq e then
        let outs = Check.out_deg so e.id in
        if outs > 1 then
          acc :=
            Check.v "queue-uniq" "enqueue %a dequeued %d times" Event.pp e outs
            :: !acc)
    events;
  List.iter
    (fun (d : Event.data) ->
      if Event.is_deq d then begin
        (match Check.in_deg so d.id with
        | 1 ->
            if not (Event.is_enq (Graph.find g (Check.in_src so d.id))) then
              acc :=
                Check.v "queue-uniq" "dequeue %a matched to a non-enqueue"
                  Event.pp d
                :: !acc
        | 0 ->
            acc :=
              Check.v "queue-uniq" "dequeue %a matched to no enqueue" Event.pp d
              :: !acc
        | n ->
            acc :=
              Check.v "queue-uniq" "dequeue %a matched %d times" Event.pp d n
              :: !acc);
        if Check.out_deg so d.id > 0 then
          acc :=
            Check.v "queue-uniq" "dequeue %a used as so source" Event.pp d
            :: !acc
      end)
    events;
  List.iter
    (fun (d : Event.data) ->
      if
        Event.is_empdeq d
        && (Check.in_deg so d.id > 0 || Check.out_deg so d.id > 0)
      then
        acc :=
          Check.v "queue-uniq" "empty dequeue %a has so edges" Event.pp d
          :: !acc)
    events;
  !acc

(* QUEUE-FIFO (the paper's weak, RMC-compatible form): if enqueue e' happens
   before enqueue e and some dequeue d takes e, then e' has already been
   dequeued — by a d' committed before d, and d must not happen before
   d'. *)
let check_fifo g =
  let so = Graph.so g in
  let events = Graph.events g in
  List.fold_left
    (fun acc (e_id, d_id) ->
      let d = Graph.find g d_id in
      if not (Event.is_deq d) then acc
      else
        let e = Graph.find g e_id in
        List.fold_left
          (fun acc (e' : Event.data) ->
            if
              Event.is_enq e' && e'.id <> e_id
              && Lview.mem e'.id e.Event.logview
            then
              let dequeued_before =
                List.exists
                  (fun (f, t) ->
                    f = e'.id
                    &&
                    let d' = Graph.find g t in
                    Check.before d' d
                    && (t = d_id || not (Lview.mem d_id d'.Event.logview)))
                  so
              in
              if dequeued_before then acc
              else
                Check.v "queue-fifo"
                  "%a happens-before %a, yet %a dequeues %a while %a is \
                   undequeued"
                  Event.pp e' Event.pp e Event.pp d Event.pp e Event.pp e'
                :: acc
            else acc)
          acc events)
    [] so

(* QUEUE-EMPDEQ: an empty dequeue d is justified only if every enqueue that
   happens before d had already been dequeued when d committed. *)
let check_empdeq g =
  let so = Graph.so g in
  let events = Graph.events g in
  List.fold_left
    (fun acc (d : Event.data) ->
      if not (Event.is_empdeq d) then acc
      else
        List.fold_left
          (fun acc (e : Event.data) ->
            if
              Event.is_enq e && e.id <> d.id
              && Lview.mem e.id d.Event.logview
            then
              let consumed =
                List.exists
                  (fun (f, t) -> f = e.id && Check.before (Graph.find g t) d)
                  so
              in
              if consumed then acc
              else
                Check.v "queue-empdeq"
                  "empty dequeue %a although %a happens-before it and is \
                   undequeued"
                  Event.pp d Event.pp e
                :: acc
            else acc)
          acc events)
    [] events

(* The full graph-based consistency (the paper's QueueConsistent). *)
let consistent g =
  check_matches g @ check_uniq g @ Check.so_lhb "queue" g @ check_fifo g
  @ check_empdeq g @ Check.lhb_cix g
