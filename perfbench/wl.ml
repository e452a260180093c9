(* What every workload hands back to psvbench.ml. *)

type result = {
  setup_s : float list;  (* one sample per set-up *)
  answers : Rec.answer list;
  busy_s : float;  (* wall time of the measured phase *)
  counters : (string * int) list;  (* exact work of one round *)
  mismatches : string list;  (* rounds whose exact work differed *)
  rss_mb : float;  (* peak resident set of the answering process *)
  alloc_mb : float option;  (* measured per answer outside this process *)
  pct_class : string option;  (* percentiles over this class only *)
}

(* The exact counters of each round must equal the first round's. *)
let check_rounds rounds =
  match List.rev rounds with
  | [] -> ([], [])
  | first :: rest ->
    ( first,
      List.concat_map
        (fun r ->
          List.filter_map
            (fun (k, v) ->
              match List.assoc_opt k r with
              | Some v' when v' = v -> None
              | Some v' -> Some (Printf.sprintf "%s: %d then %d" k v v')
              | None -> Some (k ^ ": missing in a later round"))
            first)
        rest )

(* Remove a scratch directory tree left by a run. *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)
