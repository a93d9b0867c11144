open Compass_machine

(* Wrap a scenario so every execution's recorded access log is handed to
   a collector when the judge runs (the machine is still positioned at
   the end of the execution there).  The exploration must run with
   [record_accesses] on, and — because collectors are plain closures —
   with [jobs = 1]: at [jobs > 1] the judge runs on several domains. *)

let with_accesses (s : Explore.scenario) (collect : Access.t list -> unit) =
  {
    s with
    Explore.build =
      (fun m ->
        let judge = s.Explore.build m in
        fun outcome ->
          collect (Machine.accesses m);
          judge outcome);
  }
