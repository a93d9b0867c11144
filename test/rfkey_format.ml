open Compass_rmc
open Compass_machine

(* The reads-from class key as a formatted string: the outcome tag plus,
   per thread in program order, each access's kind, location key and
   mode and the mo ranks of the timestamps it read and wrote, printed
   with [Format]/[Printf].  {!Explore.rf_class_key} encodes the same
   tuple as bytes; the rf-key test checks that both split runs into the
   same classes. *)

let key ~(outcome : Machine.outcome) accesses =
  (* timestamps observed per location, then ranked *)
  let per_loc : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let note loc ts =
    let k = Loc.key loc in
    match Hashtbl.find_opt per_loc k with
    | Some l -> l := ts :: !l
    | None -> Hashtbl.add per_loc k (ref [ ts ])
  in
  List.iter
    (function
      | Access.Access r ->
          (match r.read_ts with Some ts -> note r.loc ts | None -> ());
          (match r.write_ts with Some ts -> note r.loc ts | None -> ())
      | Access.Fence _ -> ())
    accesses;
  let rank : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k tss ->
      List.iteri
        (fun i ts -> Hashtbl.replace rank (k, ts) i)
        (List.sort_uniq compare !tss))
    per_loc;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Format.asprintf "%a" Machine.pp_outcome outcome);
  let tids = List.sort_uniq compare (List.map Access.tid accesses) in
  List.iter
    (fun tid ->
      Buffer.add_string buf (Printf.sprintf "|T%d:" tid);
      List.iter
        (fun a ->
          if Access.tid a = tid then
            match a with
            | Access.Access r ->
                let k = Loc.key r.loc in
                Buffer.add_string buf
                  (Format.asprintf "%c%d%a"
                     (match r.kind with
                     | Access.Load -> 'L'
                     | Access.Store -> 'S'
                     | Access.Update -> 'U')
                     k Mode.pp_access r.mode);
                (match r.read_ts with
                | Some ts ->
                    Buffer.add_string buf
                      (Printf.sprintf "r%d" (Hashtbl.find rank (k, ts)))
                | None -> ());
                (match r.write_ts with
                | Some ts ->
                    Buffer.add_string buf
                      (Printf.sprintf "w%d" (Hashtbl.find rank (k, ts)))
                | None -> ());
                Buffer.add_char buf ';'
            | Access.Fence f ->
                Buffer.add_string buf
                  (Format.asprintf "F%a;" Mode.pp_fence f.fence))
        accesses)
    tids;
  Buffer.contents buf
