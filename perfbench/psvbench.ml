(* The psv benchmark: one workload per invocation, seeded, timed from
   the outside through the libraries' public functions.

   psvbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]

   --trace 0 measures the end-to-end metrics untraced; --trace 1 runs
   the workload untraced for half the time and traced for the other
   half, and reports the per-layer metrics plus the tracing overhead.
   Every answer is checked against a value that does not come from the
   timed answerer.  The last line of stdout is the JSON result; the
   human-readable report goes to stderr; spans, exact counters and the
   full result with its host fingerprint go under .perfbench-run/.
   Exit 1 when an answer was wrong or refused, or when the exact work
   counters differ from an earlier run with the same seed. *)

open Rec

let out_dir = ".perfbench-run"

let workloads = [ "table1-cold"; "edit-loop"; "serve-mix" ]

let run_workload name ~seed ~seconds ~traced ~dir =
  match name with
  | "table1-cold" -> W_table1.run ~seconds
  | "edit-loop" -> W_edit.run ~seed ~seconds ~traced ~dir
  | "serve-mix" -> W_serve.run ~seed ~seconds ~traced ~dir
  | _ -> invalid_arg name

(* ---- host fingerprint ---- *)

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.trim (String.sub l 0 i) = "model name" ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:"unknown"

(* processors of the host, not the ones this process is pinned to *)
let nproc () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | text ->
    List.length
      (List.filter
         (fun l -> String.starts_with ~prefix:"processor" l)
         (String.split_on_char '\n' text))

let fingerprint ~commit ~seed =
  let s x = Printf.sprintf "%S" x in
  let cpu = function Some c -> string_of_int c | None -> "null" in
  [ ("cpu", s (cpu_model ()));
    ("nproc", string_of_int (nproc ()));
    ("ocaml", s Sys.ocaml_version);
    ("commit", s commit);
    ("ocamlrunparam", s (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
    ("seed", string_of_int seed);
    ("server_cpu", cpu !W_serve.server_cpu) ]

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

(* ---- metrics ---- *)

let num v = Printf.sprintf "%.17g" v

let metric_json (name, v, unit) =
  (name, Printf.sprintf "{\"value\": %s, \"unit\": %S}" (num v) unit)

let answers_per_s (r : Wl.result) =
  float_of_int (List.length r.Wl.answers) /. r.Wl.busy_s

(* the answers the percentiles and the allocation median are over *)
let pct_answers (r : Wl.result) =
  List.filter
    (fun a -> match r.Wl.pct_class with Some c -> a.a_class = c | None -> true)
    r.Wl.answers

let pct_sample r = List.map (fun a -> a.a_ms) (pct_answers r)

let end_to_end (r : Wl.result) =
  let n = List.length r.Wl.answers in
  let ok = List.length (List.filter (fun a -> a.a_ok) r.Wl.answers) in
  let alloc =
    match r.Wl.alloc_mb with
    | Some mb -> mb
    | None -> median (List.map (fun a -> a.a_alloc_b) (pct_answers r)) /. 1048576.
  in
  [ ("setup_s", median r.Wl.setup_s, "s");
    ("answers_per_s", answers_per_s r, "1/s");
    ("answer_ms_p50", median (pct_sample r), "ms");
    ("ok_ratio", float_of_int ok /. float_of_int n, "ratio");
    ("alloc_mb_per_answer", alloc, "MB");
    ("peak_rss_mb", r.Wl.rss_mb, "MB") ]

(* The tail percentiles, only where at least ten samples lie beyond. *)
let tails (r : Wl.result) =
  let xs = pct_sample r in
  let n = List.length xs in
  List.filter_map
    (fun (name, q) ->
      if reportable n q then Some (name, quantile xs q, "ms") else None)
    [ ("answer_ms_p90", 0.90); ("answer_ms_p99", 0.99) ]
  @ [ ("n", float_of_int n, "count") ]

let per_layer ~overhead_pct =
  let med k = Layer.median k in
  let xta_s = Layer.sum "xta.parse_ms" /. 1000. in
  [ ("transform.psm_ms", med "transform.psm_ms", "ms") ]
  @ Probe.mc_metrics ()
  @ Probe.zone_metrics ()
  @ [ ("xta.parse_ms", med "xta.parse_ms", "ms");
      ( "xta.bytes_per_s",
        (if xta_s > 0. then Layer.sum "xta.bytes" /. xta_s else 0.),
        "B/s" ) ]
  @ Probe.store_metrics ()
  @ List.map
      (fun k -> ("incr.rung." ^ k, med ("incr.rung." ^ k), "count"))
      [ "store"; "cone"; "delta"; "full" ]
  @ [ ("incr.answer_ms.delta", med "incr.answer_ms.delta", "ms");
      ("incr.answer_ms.full", med "incr.answer_ms.full", "ms");
      ("incr.persist_ms", med "incr.persist_ms", "ms");
      ("incr.replay_ratio", Layer.ratio "incr.replayed" "incr.fired", "ratio") ]
  @ List.map
      (fun k -> ("serve." ^ k ^ "_ms", med ("serve." ^ k ^ "_ms"), "ms"))
      [ "prepare"; "key"; "evaluate"; "encode" ]
  @ [ ("net.residual_ms", med "net.residual_ms", "ms");
      ("net.queue_depth", Layer.sum "net.queue_depth", "count");
      ("net.shed", Layer.sum "net.shed", "count");
      ("gc.minor_per_answer", Layer.ratio "gc.minor" "gc.answers", "count");
      ("gc.major_per_answer", Layer.ratio "gc.major" "gc.answers", "count");
      ("gc.promoted_mb_per_answer", Layer.ratio "gc.promoted_mb" "gc.answers", "MB");
      ("trace.overhead_pct", overhead_pct, "%") ]

(* ---- reports ---- *)

let print_table title rows =
  Printf.eprintf "%s\n" title;
  List.iter
    (fun (name, v, unit) -> Printf.eprintf "  %-28s %14.4f %s\n" name v unit)
    rows

(* Self time per span name, the wall time no span covers, and the
   tracing overhead. *)
let print_self_times ~wall_s ~overhead_pct =
  Printf.eprintf "self time by layer (traced phase, wall %.3f s)\n" wall_s;
  Printf.eprintf "  %-20s %8s %12s %12s %7s\n" "span" "calls" "total_ms" "self_ms" "self%";
  let rows =
    Hashtbl.fold (fun k (c, t, s) acc -> (k, !c, !t, !s) :: acc) Spans.table []
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  in
  List.iter
    (fun (k, c, t, s) ->
      Printf.eprintf "  %-20s %8d %12.2f %12.2f %6.1f%%\n" k c (1000. *. t)
        (1000. *. s) (100. *. s /. wall_s))
    rows;
  let unc = wall_s -. !Spans.roots_s in
  Printf.eprintf "  %-20s %8s %12.2f %12.2f %6.1f%%\n" "(uncovered)" "" (1000. *. unc)
    (1000. *. unc) (100. *. unc /. wall_s);
  Printf.eprintf "  tracing overhead: %.1f%% of untraced answers_per_s\n" overhead_pct

(* Exact counters must repeat across runs with one seed: the first run
   records them, later runs compare. *)
let check_counters ~file counters =
  let text =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) counters)
  in
  match In_channel.with_open_bin file In_channel.input_all with
  | prev when prev = text -> []
  | prev -> [ Printf.sprintf "exact counters differ from %s:\n%s--- now:\n%s" file prev text ]
  | exception Sys_error _ -> Wl.write_file file text; []

let main ~workload ~seed ~seconds ~trace ~commit =
  let dir = Filename.concat out_dir (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  List.iter Wl.mkdir_p [ dir; Filename.concat out_dir "counters"; Filename.concat out_dir "traces"; Filename.concat out_dir "results" ];
  let go ~seconds ~traced = run_workload workload ~seed ~seconds ~traced ~dir in
  let stem = Printf.sprintf "%s-seed%d" workload seed in
  Printf.eprintf "psvbench %s\n" (json_obj (("workload", Printf.sprintf "%S" workload) :: fingerprint ~commit ~seed));
  let result, metrics, problems =
    Fun.protect ~finally:(fun () -> Wl.rm_rf dir) @@ fun () ->
    if not trace then begin
      let r = go ~seconds ~traced:false in
      print_table "end-to-end (untraced)" (end_to_end r @ tails r);
      (r, end_to_end r, r.Wl.mismatches)
    end
    else begin
      let u = go ~seconds:(seconds /. 2.) ~traced:false in
      Layer.reset ();
      Probe.reset_zone_sample seed;
      Spans.enabled := true;
      let t0 = now () in
      let t = go ~seconds:(seconds /. 2.) ~traced:true in
      let wall_s = now () -. t0 in
      Spans.enabled := false;
      let overhead_pct = 100. *. (1. -. (answers_per_s t /. answers_per_s u)) in
      let layers = per_layer ~overhead_pct in
      print_table "per-layer (traced)" layers;
      print_self_times ~wall_s ~overhead_pct;
      Spans.write_chrome
        (Filename.concat out_dir (Printf.sprintf "traces/%s.json" stem))
        ~meta:(json_obj (fingerprint ~commit ~seed));
      let traced_differs =
        if t.Wl.counters = u.Wl.counters then []
        else [ "traced run did different exact work than the untraced run" ]
      in
      ( { t with Wl.answers = u.Wl.answers @ t.Wl.answers },
        layers,
        u.Wl.mismatches @ t.Wl.mismatches @ traced_differs )
    end
  in
  let problems =
    problems
    @ check_counters ~file:(Filename.concat out_dir (Printf.sprintf "counters/%s.txt" stem))
        result.Wl.counters
  in
  let n = List.length result.Wl.answers in
  let failed = List.length (List.filter (fun a -> not a.a_ok) result.Wl.answers) in
  List.iter (fun p -> Printf.eprintf "psvbench: %s\n" p) problems;
  if failed > 0 then Printf.eprintf "psvbench: %d of %d answers wrong or refused\n" failed n;
  let correct = failed = 0 && problems = [] in
  let line =
    json_obj
      [ ("correct", string_of_bool correct);
        ("attempted", string_of_int n);
        ("failed", string_of_int failed);
        ("metrics", json_obj (List.map metric_json metrics)) ]
  in
  Wl.write_file
    (Filename.concat out_dir
       (Printf.sprintf "results/%s-trace%d.json" stem (if trace then 1 else 0)))
    (json_obj
       [ ("host", json_obj (fingerprint ~commit ~seed));
         ("workload", Printf.sprintf "%S" workload);
         ("result", line);
         ( "report",
           json_obj
             (List.map metric_json
                (if trace then metrics else metrics @ tails result)) );
         ( "answers",
           "["
           ^ String.concat ", "
               (List.map
                  (fun a ->
                    Printf.sprintf "[%S, %s, %s]" a.a_class (num a.a_ms)
                      (num (a.a_alloc_b /. 1048576.)))
                  result.Wl.answers)
           ^ "]" ) ]
     ^ "\n");
  print_endline line;
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0
  and commit = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--commit", Arg.Set_string commit, "ID source revision, recorded in results");
      ("--server-cpu", Arg.Int (fun c -> W_serve.server_cpu := Some c),
       "N pin the serve-mix server to this CPU (taskset)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "psvbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("psvbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end
  else main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~commit:!commit
