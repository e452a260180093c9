(* serve-mix: a closed loop of 2 connections (one outstanding request
   each) from this process against a `psv serve --listen unix:...`
   child with one worker, so the client's allocation stays out of the
   server's collector.  Most requests are warm store hits on the
   Table-I queries; a seeded 5% are misses on small Diff.Gen instances
   written as .xta before measuring, each a model the server has never
   seen.  With 5% misses the p50 and p90 fall inside the hit population
   and the p99 inside the miss population, never on the boundary.

   Hits must return the Table-I sups and misses the generator's known
   truth.  Set-up (transform and export the PSM, start the server, warm
   the store with the three Table-I queries) is timed three times from a
   fresh store; the measured server is then started on the warm store
   with GC statistics at exit, which give its allocation per answer.

   The traced phase also replays the same request stream in-process
   through [Analysis.Serve] with a timed store, to split a request into
   parse, key, evaluate and encode, and runs the misses' queries through
   the explorer hook. *)

open Rec

let miss_share = 0.05
let connections = 2
let n_setups = 3

(* counters compare the first requests of every run: that prefix always
   completes *)
let counted_prefix = 200

type request = {
  rq_line : string;  (* without the id *)
  rq_model : string;
  rq_query : Mc.Query.t;
  rq_check : int -> bool;  (* is this sup correct *)
  rq_miss : bool;
}

let json_str s = Store.Json.to_string (Store.Json.String s)

let make_request ~model ~query ~check ~miss =
  { rq_line =
      Printf.sprintf "\"model\": %s, \"query\": %s" (json_str model)
        (json_str (Mc.Query.to_string query));
    rq_model = model; rq_query = query; rq_check = check; rq_miss = miss }

(* The seeded request stream: a function of the request index. *)
let stream ~seed ~dir ~seconds =
  let gpca = Filename.concat dir "gpca.xta" in
  let hits =
    Array.of_list
      (List.map
         (fun (_, q, v) -> make_request ~model:gpca ~query:q ~check:(( = ) v) ~miss:false)
         W_table1.queries)
  in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let shapes = Array.of_list Diff.Gen.all_shapes in
  let n_misses = ref 0 in
  let miss () =
    let index = !n_misses in
    incr n_misses;
    let inst = Diff.Gen.instance ~seed ~index shapes.(index mod Array.length shapes) in
    let path = Filename.concat dir (Printf.sprintf "miss-%d.xta" index) in
    Wl.write_file path (Xta.Print.to_string inst.Diff.Gen.net);
    let check v =
      match inst.Diff.Gen.truth with
      | Diff.Gen.Exact t -> v = t
      | Diff.Gen.Between (lb, ub) -> lb <= v && v <= ub
    in
    make_request ~model:path ~query:(Diff.Gen.query inst) ~check ~miss:true
  in
  (* twice the requests the loop answers per second on a 2-core host;
     written up front so the loop never generates inputs *)
  let n = 2000 * int_of_float (Float.ceil seconds) + counted_prefix in
  Array.init n (fun _ ->
      if Random.State.float rng 1. < miss_share then miss ()
      else hits.(Random.State.int rng (Array.length hits)))

(* ---- the server child ---- *)

let psv_exe = "_build/default/bin/psv_cli.exe"

(* the CPU the server is pinned to, when the host has one to spare *)
let server_cpu : int option ref = ref None

let start_server ~dir ~store ~tag ~gc_stats =
  let sock = Filename.concat dir (tag ^ ".sock") in
  let err = Unix.openfile (Filename.concat dir (tag ^ ".err")) [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let env =
    if not gc_stats then Unix.environment ()
    else
      let prev = Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM") in
      Array.append
        (Array.of_list
           (List.filter
              (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
              (Array.to_list (Unix.environment ()))))
        [| "OCAMLRUNPARAM=" ^ (if prev = "" then "v=0x400" else prev ^ ",v=0x400") |]
  in
  let argv =
    Array.append
      (match !server_cpu with
       | Some c -> [| "taskset"; "-c"; string_of_int c |]
       | None -> [||])
      [| psv_exe; "serve"; "--listen"; "unix:" ^ sock; "--cache"; store; "--jobs"; "1" |]
  in
  let pid = Unix.create_process_env argv.(0) argv env Unix.stdin Unix.stdout err in
  Unix.close err;
  (pid, sock)

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let rec connect ~deadline sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception Unix.Unix_error _ when now () < deadline ->
    Unix.close fd;
    Unix.sleepf 0.002;
    connect ~deadline sock
  | exception e -> Unix.close fd; raise e

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable pending : (int * float) option;  (* request index, send time *)
}

let send c i line =
  let s = Printf.sprintf "{\"id\": %d, %s}\n" i line in
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  c.pending <- Some (i, now ());
  go 0

(* the next complete line of [c], reading as needed *)
let rec read_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)
  | None ->
    let chunk = Bytes.create 65536 in
    let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if k = 0 then None
    else (Buffer.add_subbytes c.buf chunk 0 k; read_line c)

let has_line c = String.contains (Buffer.contents c.buf) '\n'

(* sup value and exploration stats of an "ok" response *)
let parse_reply line =
  let open Store.Json in
  match parse line with
  | Error _ -> None
  | Ok j ->
    let ( >>= ) = Option.bind in
    if member "status" j >>= to_str <> Some "ok" then None
    else
      let sup =
        member "outcome" j >>= fun o ->
        if member "kind" o >>= to_str <> Some "sup" then None
        else member "sup" o >>= fun s -> member "value" s >>= to_int
      in
      let stat k = member "stats" j >>= member k >>= to_int in
      match sup, stat "visited", stat "stored" with
      | Some v, Some vi, Some st -> Some (v, vi, st)
      | _ -> None

(* One request and its reply over a fresh connection. *)
let ask sock line =
  let c = { fd = connect ~deadline:(now () +. 10.) sock; buf = Buffer.create 256; pending = None } in
  Fun.protect ~finally:(fun () -> Unix.close c.fd) @@ fun () ->
  send c 0 line;
  Option.value ~default:"" (read_line c)

(* Closed loop until [seconds] elapse: answers, per-request counters of
   the counted prefix, wall time, and the client round trips of hits. *)
let closed_loop ~sock ~(reqs : request array) ~seconds =
  let conns =
    Array.init connections (fun _ ->
        { fd = connect ~deadline:(now () +. 10.) sock; buf = Buffer.create 4096; pending = None })
  in
  let next = ref 0 and answers = ref [] and counters = ref [] and hit_rtts = ref [] in
  let post c =
    let i = !next in
    incr next;
    send c i reqs.(i).rq_line
  in
  let t_start = now () in
  Array.iter post conns;
  let live () = Array.exists (fun c -> c.pending <> None) conns in
  while live () do
    let ready =
      match List.filter (fun c -> c.pending <> None && has_line c) (Array.to_list conns) with
      | [] ->
        let fds = List.filter_map (fun c -> if c.pending <> None then Some c.fd else None) (Array.to_list conns) in
        let r, _, _ = Unix.select fds [] [] 30. in
        if r = [] then failwith "serve-mix: server stopped answering";
        List.filter (fun c -> List.memq c.fd r) (Array.to_list conns)
      | cs -> cs
    in
    List.iter
      (fun c ->
        match c.pending, read_line c with
        | Some (i, t0), Some line ->
          let ms = 1000. *. (now () -. t0) in
          let rq = reqs.(i) in
          let ok =
            match parse_reply line with
            | Some (v, vi, st) ->
              if i < counted_prefix then
                counters := (Printf.sprintf "r%d.stored" i, st) :: (Printf.sprintf "r%d.visited" i, vi) :: !counters;
              rq.rq_check v
            | None -> false
          in
          if not rq.rq_miss then hit_rtts := ms :: !hit_rtts;
          answers :=
            { a_ms = ms; a_ok = ok; a_alloc_b = 0.;
              a_class = (if rq.rq_miss then "miss" else "hit") }
            :: !answers;
          c.pending <- None;
          if !next < Array.length reqs
             && (!next < counted_prefix || now () -. t_start < seconds)
          then post c
        | Some _, None -> failwith "serve-mix: server closed the connection"
        | None, _ -> ())
      ready
  done;
  let busy_s = now () -. t_start in
  Array.iter (fun c -> Unix.close c.fd) conns;
  (List.rev !answers, List.sort compare !counters, busy_s, !hit_rtts)

(* Set-up as a user pays it: transform and export the PSM, start the
   server on an empty store, warm it with the Table-I queries. *)
let setup ~dir ~k =
  let store = Filename.concat dir (Printf.sprintf "store-%d" k) in
  Wl.rm_rf store;
  let t0 = now () in
  let psm =
    timed "transform.psm" (fun () ->
        Transform.psm_of_pim (W_table1.pim ()) (W_table1.scheme ()))
  in
  Wl.write_file (Filename.concat dir "gpca.xta") (Xta.Print.to_string psm.Transform.psm_net);
  let pid, sock = start_server ~dir ~store ~tag:(Printf.sprintf "setup-%d" k) ~gc_stats:false in
  Fun.protect ~finally:(fun () -> stop_server pid) @@ fun () ->
  List.iteri
    (fun i (_, q, v) ->
      let line =
        ask sock
          (make_request ~model:(Filename.concat dir "gpca.xta") ~query:q
             ~check:(( = ) v) ~miss:false).rq_line
      in
      match parse_reply line with
      | Some (sup, _, _) when sup = v -> ()
      | _ -> failwith (Printf.sprintf "serve-mix: warming query %d answered %s" i line))
    W_table1.queries;
  (store, now () -. t0)

let server_allocated_mb err_file =
  let text = In_channel.with_open_text err_file In_channel.input_all in
  List.fold_left
    (fun acc l ->
      match Scanf.sscanf l "allocated_words: %f" Fun.id with
      | w -> w *. float_of_int (Sys.word_size / 8) /. 1048576.
      | exception _ -> acc)
    0. (String.split_on_char '\n' text)

(* ---- the traced in-process replay ---- *)

let in_process ~dir ~(reqs : request array) ~seconds =
  let cache = Probe.open_store ~traced:true (Filename.concat dir "store-inproc") in
  let cfg = Analysis.Serve.default_config in
  let models = Hashtbl.create 64 in
  let load_model path =
    match Hashtbl.find_opt models path with
    | Some r -> r
    | None ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      if !Spans.enabled then Layer.add "xta.bytes" (float_of_int (String.length text));
      let r = timed "xta.parse" (fun () -> Xta.Parse.network text) in
      Hashtbl.replace models path r;
      r
  in
  let serve i rq =
    let line = Printf.sprintf "{\"id\": %d, %s}" i rq.rq_line in
    let p = timed "serve.prepare" (fun () -> Analysis.Serve.prepare cfg ~cache ~load_model line) in
    (match load_model rq.rq_model with
     | Ok net -> ignore (timed "serve.key" (fun () -> Analysis.Qcache.key net rq.rq_query))
     | Error _ -> ());
    let r = timed "serve.evaluate" (fun () -> Analysis.Serve.evaluate cfg ~cache p) in
    timed "serve.encode" (fun () ->
        Store.Json.to_string (fst (Analysis.Serve.reply_json ~cache r)))
  in
  (* warm the store as the server's was, untraced *)
  Spans.enabled := false;
  List.iter
    (fun (_, q, v) ->
      ignore
        (serve (-1)
           (make_request ~model:(Filename.concat dir "gpca.xta") ~query:q ~check:(( = ) v)
              ~miss:false)))
    W_table1.queries;
  Spans.enabled := true;
  let hits0 = Analysis.Qcache.hits cache and misses0 = Analysis.Qcache.misses cache in
  let wrong = ref 0 and hit_ms = ref [] and misses = ref [] in
  let t_start = now () in
  let i = ref 0 in
  while !i < Array.length reqs && (!i = 0 || now () -. t_start < seconds) do
    let rq = reqs.(!i) in
    Spans.answer_id := !i;
    let reply, a = measure ~cls:"" (fun () -> Spans.span "answer" (fun () -> serve !i rq)) in
    if not rq.rq_miss then hit_ms := a.a_ms :: !hit_ms else misses := rq :: !misses;
    Layer.flush ();
    (match parse_reply reply with
     | Some (v, _, _) when rq.rq_check v -> ()
     | _ -> incr wrong);
    incr i
  done;
  Layer.add "qcache.hits" (float_of_int (Analysis.Qcache.hits cache - hits0));
  Layer.add "qcache.misses" (float_of_int (Analysis.Qcache.misses cache - misses0));
  Layer.flush ();
  (* the misses' queries through the explorer hook, one sample each *)
  List.iter
    (fun rq ->
      match load_model rq.rq_model with
      | Ok net -> ignore (Probe.eval net rq.rq_query); Layer.flush ()
      | Error _ -> ())
    !misses;
  (!wrong, !hit_ms)

let run ~seed ~seconds ~traced ~dir =
  let reqs = stream ~seed ~dir ~seconds in
  let setups = List.init n_setups (fun k -> Spans.span "setup" (fun () -> setup ~dir ~k)) in
  let store = fst (List.nth setups (n_setups - 1)) in
  let socket_s = if traced then seconds /. 2. else seconds in
  let pid, sock = start_server ~dir ~store ~tag:"measured" ~gc_stats:true in
  let answers, counters, busy_s, hit_rtts, rss_mb =
    Fun.protect ~finally:(fun () -> stop_server pid) @@ fun () ->
    let answers, counters, busy_s, hit_rtts =
      Spans.span "net.closed_loop" (fun () -> closed_loop ~sock ~reqs ~seconds:socket_s)
    in
    if traced then begin
      match Store.Json.parse (ask sock "\"stats\": true") with
      | Ok j ->
        let g k = Option.bind (Option.bind (Store.Json.member "stats" j) (Store.Json.member "queue")) (fun q -> Option.bind (Store.Json.member k q) Store.Json.to_int) in
        Layer.add "net.queue_depth" (float_of_int (Option.value ~default:0 (g "depth")));
        Layer.add "net.shed" (float_of_int (Option.value ~default:0 (g "shed")));
        Layer.flush ()
      | Error _ -> ()
    end;
    (answers, counters, busy_s, hit_rtts, peak_rss_mb (string_of_int pid))
  in
  let alloc = server_allocated_mb (Filename.concat dir "measured.err") in
  let mismatches =
    if not traced then []
    else begin
      let wrong, inproc_hit_ms = in_process ~dir ~reqs ~seconds:(seconds /. 2.) in
      Layer.add "net.residual_ms" (median hit_rtts -. median inproc_hit_ms);
      Layer.flush ();
      if wrong > 0 then [ Printf.sprintf "%d in-process answers wrong" wrong ] else []
    end
  in
  { Wl.setup_s = List.map snd setups; answers; busy_s; counters; mismatches; rss_mb;
    alloc_mb = Some (alloc /. float_of_int (List.length answers)); pct_class = None }
