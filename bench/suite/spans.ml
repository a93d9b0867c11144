(* In-memory span recorder for the benchmark's traced runs.

   Spans are recorded from outside the library, around the calls into each
   layer's public functions.  Every span is charged to its layer's
   per-repetition aggregate (count, total and self time, self minor
   words), where self means the span's own value minus that of its direct
   children.  Raw spans (name, start, end, parent, repetition) are kept
   only for the first [raw_cap] spans of each layer, because per-execution
   layers (build, judge, Simrel) fire hundreds of thousands of times. *)

open Compass_util

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type agg = {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable self_words : float;
}

type layer = { lname : string; mutable agg : agg; mutable kept : int }

type raw = {
  id : int;
  name : string;
  parent : int;  (** -1 for a span at the top of its repetition *)
  rep : int;
  start_ns : int;
  stop_ns : int;
}

type frame = {
  fid : int;
  t0 : int;
  w0 : float;
  mutable child_ns : int;
  mutable child_words : float;
}

let raw_cap = 1000
let layers : layer list ref = ref []
let raws : raw list ref = ref []
let next_id = ref 0
let rep_id = ref 0
let origin = now_ns ()

(* The bottom frame (id -1) is the parent of every top-level span; it never
   closes. *)
let stack = ref [ { fid = -1; t0 = 0; w0 = 0.; child_ns = 0; child_words = 0. } ]

let fresh () = { count = 0; total_ns = 0; self_ns = 0; self_words = 0. }

let layer lname =
  let l = { lname; agg = fresh (); kept = 0 } in
  layers := l :: !layers;
  l

let span l f =
  let parent = List.hd !stack in
  let fr =
    { fid = !next_id; t0 = now_ns (); w0 = Gc.minor_words (); child_ns = 0;
      child_words = 0. }
  in
  incr next_id;
  stack := fr :: !stack;
  let finish () =
    let t1 = now_ns () and w1 = Gc.minor_words () in
    stack := List.tl !stack;
    let dur = t1 - fr.t0 and words = w1 -. fr.w0 in
    let a = l.agg in
    a.count <- a.count + 1;
    a.total_ns <- a.total_ns + dur;
    a.self_ns <- a.self_ns + dur - fr.child_ns;
    a.self_words <- a.self_words +. words -. fr.child_words;
    parent.child_ns <- parent.child_ns + dur;
    parent.child_words <- parent.child_words +. words;
    if l.kept < raw_cap then begin
      l.kept <- l.kept + 1;
      raws :=
        { id = fr.fid; name = l.lname; parent = parent.fid; rep = !rep_id;
          start_ns = fr.t0 - origin; stop_ns = t1 - origin }
        :: !raws
    end
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Run repetition [i] on fresh aggregates; returns [f]'s result and the
   repetition's aggregates by layer name. *)
let repetition i f =
  rep_id := i;
  List.iter (fun l -> l.agg <- fresh ()) !layers;
  let r = f () in
  (r, List.map (fun l -> (l.lname, l.agg)) !layers)

let agg_json a =
  Jsonout.Obj
    [
      ("count", Jsonout.Int a.count);
      ("total_ns", Jsonout.Int a.total_ns);
      ("self_ns", Jsonout.Int a.self_ns);
      ("self_minor_words", Jsonout.Int (int_of_float a.self_words));
    ]

let write file ~header reps =
  let raw_json r =
    Jsonout.Obj
      [
        ("id", Jsonout.Int r.id);
        ("name", Jsonout.Str r.name);
        ("parent", Jsonout.Int r.parent);
        ("rep", Jsonout.Int r.rep);
        ("start_ns", Jsonout.Int r.start_ns);
        ("end_ns", Jsonout.Int r.stop_ns);
      ]
  in
  let rep_json (i, aggs) =
    Jsonout.Obj
      [
        ("rep", Jsonout.Int i);
        ("layers", Jsonout.Obj (List.map (fun (n, a) -> (n, agg_json a)) aggs));
      ]
  in
  let json =
    Jsonout.Obj
      (header
      @ [
          ("reps", Jsonout.List (List.map rep_json reps));
          ("spans", Jsonout.List (List.rev_map raw_json !raws));
        ])
  in
  let oc = open_out file in
  output_string oc (Jsonout.to_string json);
  close_out oc
