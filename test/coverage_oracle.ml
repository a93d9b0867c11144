open Compass_rmc
open Compass_machine
module Coverage = Compass_fuzz.Coverage

(* String-keyed site-pair coverage (see coverage_oracle.mli). *)

type t = {
  fps : (int, unit) Hashtbl.t;
  pairs : (string, unit) Hashtbl.t;
  mutable new_pair_execs : int;
}

let create () =
  { fps = Hashtbl.create 199; pairs = Hashtbl.create 63; new_pair_execs = 0 }

let distinct t = Hashtbl.length t.fps
let pair_count t = Hashtbl.length t.pairs
let new_pair_execs t = t.new_pair_execs

(* A printable label for an access: its site when the program supplied
   one, else kind @ location. *)
let label (a : Access.t) =
  match Access.site a with
  | Some s -> s
  | None -> (
      match a with
      | Access.Access r ->
          let k =
            match r.kind with
            | Access.Load -> "R"
            | Access.Store -> "W"
            | Access.Update -> "U"
          in
          k ^ "@" ^ Loc.to_string r.loc
      | Access.Fence _ -> "F")

let note t accesses =
  let fp = Coverage.fingerprint accesses in
  let fresh = not (Hashtbl.mem t.fps fp) in
  if fresh then Hashtbl.replace t.fps fp ();
  (* last access per (location, thread), to find each access's most
     recent prior conflicting access by another thread in one pass *)
  let last : (int, (int, bool * string * int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let news = ref 0 in
  List.iter
    (fun (a : Access.t) ->
      match a with
      | Access.Fence _ -> ()
      | Access.Access r ->
          let writes = r.kind <> Access.Load in
          let lbl = label a in
          let per =
            match Hashtbl.find_opt last (Loc.hash r.loc) with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 4 in
                Hashtbl.replace last (Loc.hash r.loc) h;
                h
          in
          let prev =
            Hashtbl.fold
              (fun tid (w, l, aid) acc ->
                if tid <> r.tid && (w || writes) then
                  match acc with
                  | Some (_, aid') when aid' >= aid -> acc
                  | _ -> Some (l, aid)
                else acc)
              per None
          in
          (match prev with
          | Some (plbl, _) ->
              let key = plbl ^ " -> " ^ lbl in
              if not (Hashtbl.mem t.pairs key) then (
                Hashtbl.replace t.pairs key ();
                incr news)
          | None -> ());
          Hashtbl.replace per r.tid (writes, lbl, r.aid))
    accesses;
  if !news > 0 then t.new_pair_execs <- t.new_pair_execs + 1;
  { Coverage.fresh; new_pairs = !news }

let merge dst src =
  Hashtbl.iter (fun k () -> Hashtbl.replace dst.fps k ()) src.fps;
  Hashtbl.iter (fun k () -> Hashtbl.replace dst.pairs k ()) src.pairs;
  dst.new_pair_execs <- dst.new_pair_execs + src.new_pair_execs
