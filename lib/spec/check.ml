open Compass_rmc
open Compass_event

(* Violations: the currency of all spec checkers.

   A checker examines an execution's event graph (or its commit-order
   replay) and reports every condition it finds violated.  The empty list
   means the execution satisfies the spec — the operational counterpart of
   the paper's consistency predicates holding invariantly. *)

type violation = { cond : string; detail : string }

let v cond fmt = Format.kasprintf (fun detail -> { cond; detail }) fmt

let pp_violation ppf { cond; detail } = Format.fprintf ppf "[%s] %s" cond detail

let pp ppf = function
  | [] -> Format.pp_print_string ppf "consistent"
  | vs ->
      Format.fprintf ppf "@[<v>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_violation)
        vs

(* Check [p]; if it fails, produce the violation. *)
let ensure acc cond p detail = if p then acc else v cond "%s" (detail ()) :: acc

(* -- what every container spec states -----------------------------------------

   The queue, stack and deque consistency conditions quantify over "already
   committed" events, so each is stated against the graph at the commit
   point of the event under inspection: operationally, the commit-index
   prefix. *)

let before (a : Event.data) (b : Event.data) = Event.cix_compare a.cix b.cix < 0

(* so-degree scans over the (short) edge list, allocating nothing — the
   checkers run on every completed execution, so the all-pass path must
   stay cheap. *)
let out_deg so id = List.fold_left (fun n (f, _) -> if f = id then n + 1 else n) 0 so
let in_deg so id = List.fold_left (fun n (_, t) -> if t = id then n + 1 else n) 0 so

let in_src so id =
  List.fold_left (fun s (f, t) -> if t = id then f else s) (-1) so

(* so ⊆ lhb, and so respects commit order: a removal commits after the
   insertion it takes from and has synchronised with it. *)
let so_lhb kind g =
  List.fold_left
    (fun acc (e_id, d_id) ->
      let e = Graph.find g e_id and d = Graph.find g d_id in
      (* Both ends were just found in the graph, so [Graph.lhb] reduces to
         irreflexivity + logview membership. *)
      let acc =
        if e_id <> d_id && Lview.mem e_id d.Event.logview then acc
        else
          v (kind ^ "-so-lhb") "(%a, %a) in so but not lhb" Event.pp e Event.pp
            d
          :: acc
      in
      if before e d then acc
      else
        v (kind ^ "-so-cix") "so pair (%a, %a) violates commit order" Event.pp
          e Event.pp d
        :: acc)
    [] (Graph.so g)

(* lhb must be consistent with commit order: an event only observes events
   committed in earlier steps — or in the *same* atomic step, which is how
   helped pairs mutually observe each other (the paper's footnote 7: the
   two matching exchange commits are not both hb-ordered, yet each call's
   beginning happens before the other's end). *)
let lhb_cix g =
  let acc = ref [] in
  List.iter
    (fun (e : Event.data) ->
      Lview.iter
        (fun d_id ->
          if d_id <> e.id then
            match Graph.find_opt g d_id with
            | Some d ->
                if fst d.Event.cix > fst e.Event.cix then
                  acc :=
                    v "lhb-cix" "%a observes %a which commits later" Event.pp e
                      Event.pp d
                    :: !acc
            | None -> ()
            (* foreign-object event: fine *))
        e.logview)
    (Graph.events g);
  !acc
