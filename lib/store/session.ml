let magic_sess = "PSVSESS1"
let magic_graph = "PSVGRAPH1"
let schema = "psv-sess-v1"

type t = {
  ss_tag : string;
  ss_query : string;
  ss_net : string;
  ss_result_key : D128.t;
  ss_manifest : Key.manifest;
}

let session_key ~tag ~query =
  let st = D128.builder () in
  D128.add_string st schema;
  D128.add_string st tag;
  D128.add_string st query;
  D128.value st

let sess_name key = D128.to_hex key ^ ".psvs"
let graph_name key = D128.to_hex key ^ ".psvg"

let manifest_to_json (m : Key.manifest) =
  Json.Obj
    [
      ("decls", Json.String (D128.to_hex m.Key.mf_decls));
      ( "automata",
        Json.List
          (List.map
             (fun (name, d) ->
               Json.List [ Json.String name; Json.String (D128.to_hex d) ])
             m.Key.mf_automata) );
    ]

let manifest_of_json j =
  let ( let* ) = Option.bind in
  let* decls = Json.member "decls" j in
  let* decls = Json.to_str decls in
  let* decls = D128.of_hex decls in
  let* autos = Json.member "automata" j in
  let* autos = Json.to_list autos in
  let* autos =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match item with
        | Json.List [ Json.String name; Json.String hex ] ->
          let* d = D128.of_hex hex in
          Some ((name, d) :: acc)
        | _ -> None)
      (Some []) autos
  in
  Some { Key.mf_decls = decls; mf_automata = List.rev autos }

let to_json s =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("tag", Json.String s.ss_tag);
      ("query", Json.String s.ss_query);
      ("net", Json.String s.ss_net);
      ("result_key", Json.String (D128.to_hex s.ss_result_key));
      ("manifest", manifest_to_json s.ss_manifest);
    ]

let of_json j =
  let str name =
    match Option.bind (Json.member name j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let ( let* ) = Result.bind in
  let* sc = str "schema" in
  let* () = if sc = schema then Ok () else Error ("unknown schema " ^ sc) in
  let* ss_tag = str "tag" in
  let* ss_query = str "query" in
  let* ss_net = str "net" in
  let* key_hex = str "result_key" in
  let* ss_result_key =
    match D128.of_hex key_hex with
    | Some k -> Ok k
    | None -> Error "bad result_key"
  in
  let* ss_manifest =
    match Option.bind (Json.member "manifest" j) manifest_of_json with
    | Some m -> Ok m
    | None -> Error "bad manifest"
  in
  Ok { ss_tag; ss_query; ss_net; ss_result_key; ss_manifest }

let save disk s =
  Disk.publish disk
    (sess_name (session_key ~tag:s.ss_tag ~query:s.ss_query))
    (Disk.frame magic_sess [ Json.to_string (to_json s) ])

let parse_session raw =
  let ( let* ) = Result.bind in
  let* pos = Disk.unframe magic_sess raw in
  let* json = Json.parse (Disk.payload raw pos) in
  of_json json

let load disk key =
  let name = sess_name key in
  if not (Disk.exists disk name) then Error "no session"
  else Result.bind (Disk.read disk name) parse_session

let save_graph disk key parts =
  Disk.publish disk (graph_name key) (Disk.frame magic_graph parts)

let load_graph disk key =
  let name = graph_name key in
  if not (Disk.exists disk name) then None
  else
    Result.to_option
      (Result.bind (Disk.read disk name) (fun raw ->
           Result.map (fun pos -> (raw, pos)) (Disk.unframe magic_graph raw)))

let files disk suffix =
  try Disk.files disk suffix with Sys_error _ | Unix.Unix_error _ -> []

let list disk = files disk ".psvs"

type fsck = {
  sk_ok : int;
  sk_bad : (string * string) list;
  sk_graphs : int;
}

(* A session passes fsck only if its stored manifest matches a fresh
   recomputation from the stored network text — digest per automaton,
   not just the roll-up — so a stale or hand-edited manifest is caught
   even when the framing digest is internally consistent. *)
let check_session disk file =
  let ( let* ) = Result.bind in
  let* raw = Disk.read disk file in
  let* s = parse_session raw in
  let* () =
    if sess_name (session_key ~tag:s.ss_tag ~query:s.ss_query) = file then Ok ()
    else Error "session key does not match file name"
  in
  let* net =
    match Xta.Parse.network s.ss_net with
    | Ok net -> Ok net
    | Error msg -> Error ("stored network does not parse: " ^ msg)
  in
  if Key.manifest_equal (Key.manifest net) s.ss_manifest then Ok ()
  else Error "manifest does not match recomputed per-automaton digests"

let check_graph disk file =
  Result.bind (Disk.read disk file) (fun raw ->
      Result.map ignore (Disk.unframe magic_graph raw))

let fsck disk =
  let scan suffix check ok acc =
    List.fold_left
      (fun acc file ->
        match check disk file with
        | Ok () -> ok acc
        | Error msg -> { acc with sk_bad = (file, msg) :: acc.sk_bad })
      acc (files disk suffix)
  in
  { sk_ok = 0; sk_bad = []; sk_graphs = 0 }
  |> scan ".psvs" check_session (fun a -> { a with sk_ok = a.sk_ok + 1 })
  |> scan ".psvg" check_graph (fun a -> { a with sk_graphs = a.sk_graphs + 1 })
  |> fun acc -> { acc with sk_bad = List.rev acc.sk_bad }

let gc disk =
  let removed = ref 0 in
  let sweep suffix check =
    List.iter
      (fun file ->
        match check disk file with
        | Ok () -> ()
        | Error _ -> if Disk.delete disk file then incr removed)
      (files disk suffix)
  in
  sweep ".psvs" check_session;
  sweep ".psvg" check_graph;
  !removed
