open Compass_rmc

(* The typed decision trace: every nondeterministic choice the machine
   makes — scheduling, read selection, CAS satisfaction, timestamp
   placement — as one record carrying what was decided, how wide the
   choice was, where in the program it happened, and (for reads) the
   reads-from provenance of the message actually returned.  See
   decision.mli. *)

type kind =
  | Sched of int
  | Read of Loc.t
  | Await of Loc.t
  | Cas of Loc.t
  | Ts of Loc.t
  | Opaque

type rf = { rf_ts : Timestamp.t; rf_wtid : int }

type t = {
  choice : int;
  arity : int;
  mutable kind : kind;
  mutable rf : rf option;
  mutable site : string option;
}

type trace = t array

let make ?(kind = Opaque) ?site ~choice ~arity () =
  { choice; arity; kind; rf = None; site }

let opaque choice = { choice; arity = 0; kind = Opaque; rf = None; site = None }
let of_ints s = Array.map opaque s
let choices (tr : trace) = Array.map (fun d -> d.choice) tr
let arities (tr : trace) = Array.map (fun d -> d.arity) tr

(* Same decision site, another alternative: keep kind/site, drop the
   provenance (it described the old choice). *)
let resolve d choice = { d with choice; rf = None }
let bumped d = resolve d (d.choice + 1)
let zeroed d = resolve d 0
let set_rf d ~ts ~wtid = d.rf <- Some { rf_ts = ts; rf_wtid = wtid }

let equal_kind a b =
  match (a, b) with
  | Sched x, Sched y -> x = y
  | Read x, Read y | Await x, Await y | Cas x, Cas y | Ts x, Ts y ->
      Loc.equal x y
  | Opaque, Opaque -> true
  | _ -> false

let equal a b =
  a.choice = b.choice && a.arity = b.arity && equal_kind a.kind b.kind
  && a.rf = b.rf && a.site = b.site

let equal_trace a b = Array.length a = Array.length b && Array.for_all2 equal a b

let strip_trailing_zeros (tr : trace) =
  let n = ref (Array.length tr) in
  while !n > 0 && tr.(!n - 1).choice = 0 do
    decr n
  done;
  Array.sub tr 0 !n

let measure (tr : trace) =
  (Array.length tr, Array.fold_left (fun acc d -> acc + d.choice) 0 tr)

(* -- pretty-printing ---------------------------------------------------------- *)

let pp_kind ppf = function
  | Sched t -> if t < 0 then Format.fprintf ppf "sched" else Format.fprintf ppf "sched T%d" t
  | Read l -> Format.fprintf ppf "read %a" Loc.pp l
  | Await l -> Format.fprintf ppf "await %a" Loc.pp l
  | Cas l -> Format.fprintf ppf "cas %a" Loc.pp l
  | Ts l -> Format.fprintf ppf "ts %a" Loc.pp l
  | Opaque -> Format.fprintf ppf "?"

let pp ppf d =
  Format.fprintf ppf "%a %d" pp_kind d.kind d.choice;
  if d.arity > 0 then Format.fprintf ppf "/%d" d.arity;
  (match d.site with Some s -> Format.fprintf ppf " [%s]" s | None -> ());
  match d.rf with
  | Some r ->
      Format.fprintf ppf " <- w@%a" Timestamp.pp r.rf_ts;
      if r.rf_wtid >= 0 then Format.fprintf ppf " by T%d" r.rf_wtid
      else Format.fprintf ppf " (init)"
  | None -> ()

let pp_trace ppf (tr : trace) =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i d -> Format.fprintf ppf "%3d  %a@," i pp d)
    tr;
  Format.fprintf ppf "@]"

(* -- serialization ------------------------------------------------------------ *)

(* v2 line grammar (one trace per line, tokens space-separated):

     line   := "v2" (" " token)*
     token  := kind ":" choice "/" arity rf?
     kind   := "s" tid | "r" key | "w" key | "c" key | "t" key | "o"
     rf     := "@" ts "." wtid

   where [key] is {!Loc.key} (locations round-trip as ints; the global
   name registry restores printable names).  A line that does not start
   with "v2" is a v1 script: plain space-separated choice ints. *)

let token_of d =
  let b = Buffer.create 16 in
  (match d.kind with
  | Sched t -> Buffer.add_string b (Printf.sprintf "s%d" t)
  | Read l -> Buffer.add_string b (Printf.sprintf "r%d" (Loc.key l))
  | Await l -> Buffer.add_string b (Printf.sprintf "w%d" (Loc.key l))
  | Cas l -> Buffer.add_string b (Printf.sprintf "c%d" (Loc.key l))
  | Ts l -> Buffer.add_string b (Printf.sprintf "t%d" (Loc.key l))
  | Opaque -> Buffer.add_char b 'o');
  Buffer.add_string b (Printf.sprintf ":%d/%d" d.choice d.arity);
  (match d.rf with
  | Some r -> Buffer.add_string b (Printf.sprintf "@%d.%d" r.rf_ts r.rf_wtid)
  | None -> ());
  Buffer.contents b

(* A choice is a non-negative integer; anything else is malformed. *)
let choice_of_string s =
  match int_of_string_opt s with Some c when c >= 0 -> c | _ -> raise Exit

let of_choices tokens =
  try Some (of_ints (Array.of_list (List.map choice_of_string tokens)))
  with Exit -> None

let token_to s =
  let fail () = raise Exit in
  let colon = try String.index s ':' with Not_found -> fail () in
  let kind =
    if colon = 0 then fail ()
    else
      let num from = try int_of_string (String.sub s (from + 1) (colon - from - 1)) with _ -> fail () in
      match s.[0] with
      | 's' -> Sched (num 0)
      | 'r' -> Read (Loc.of_key (num 0))
      | 'w' -> Await (Loc.of_key (num 0))
      | 'c' -> Cas (Loc.of_key (num 0))
      | 't' -> Ts (Loc.of_key (num 0))
      | 'o' -> if colon = 1 then Opaque else fail ()
      | _ -> fail ()
  in
  let rest = String.sub s (colon + 1) (String.length s - colon - 1) in
  let rest, rf =
    match String.index_opt rest '@' with
    | None -> (rest, None)
    | Some at ->
        let rfs = String.sub rest (at + 1) (String.length rest - at - 1) in
        let dot = try String.index rfs '.' with Not_found -> fail () in
        let ts = try int_of_string (String.sub rfs 0 dot) with _ -> fail () in
        let wtid =
          try int_of_string (String.sub rfs (dot + 1) (String.length rfs - dot - 1))
          with _ -> fail ()
        in
        (String.sub rest 0 at, Some { rf_ts = ts; rf_wtid = wtid })
  in
  let slash = try String.index rest '/' with Not_found -> fail () in
  let choice = choice_of_string (String.sub rest 0 slash) in
  let arity =
    try int_of_string (String.sub rest (slash + 1) (String.length rest - slash - 1))
    with _ -> fail ()
  in
  { choice; arity; kind; rf; site = None }

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let to_line (tr : trace) =
  String.concat " " ("v2" :: (Array.to_list tr |> List.map token_of))

let of_line s =
  match split_ws s with
  | "v2" :: tokens -> (
      try Some (Array.of_list (List.map token_to tokens)) with Exit -> None)
  | tokens -> of_choices tokens

(* -- JSON (emit-only; replays re-derive provenance from the choices) -- *)

let kind_to_json = function
  | Sched t -> [ ("kind", Compass_util.Jsonout.Str "sched"); ("tid", Compass_util.Jsonout.Int t) ]
  | Read l -> [ ("kind", Compass_util.Jsonout.Str "read"); ("loc", Compass_util.Jsonout.Str (Format.asprintf "%a" Loc.pp l)) ]
  | Await l -> [ ("kind", Compass_util.Jsonout.Str "await"); ("loc", Compass_util.Jsonout.Str (Format.asprintf "%a" Loc.pp l)) ]
  | Cas l -> [ ("kind", Compass_util.Jsonout.Str "cas"); ("loc", Compass_util.Jsonout.Str (Format.asprintf "%a" Loc.pp l)) ]
  | Ts l -> [ ("kind", Compass_util.Jsonout.Str "ts"); ("loc", Compass_util.Jsonout.Str (Format.asprintf "%a" Loc.pp l)) ]
  | Opaque -> [ ("kind", Compass_util.Jsonout.Str "opaque") ]

let to_json d =
  Compass_util.Jsonout.Obj
    ([ ("choice", Compass_util.Jsonout.Int d.choice);
       ("arity", Compass_util.Jsonout.Int d.arity) ]
    @ kind_to_json d.kind
    @ (match d.site with
      | Some s -> [ ("site", Compass_util.Jsonout.Str s) ]
      | None -> [])
    @
    match d.rf with
    | Some r ->
        [ ("rf_ts", Compass_util.Jsonout.Int r.rf_ts);
          ("rf_wtid", Compass_util.Jsonout.Int r.rf_wtid) ]
    | None -> [])

let trace_to_json (tr : trace) =
  Compass_util.Jsonout.List (Array.to_list tr |> List.map to_json)
