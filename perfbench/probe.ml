(* Outside-in probes of single layers: a sup query run through the
   explorer's public [expand] hook, a seeded sample of the successor
   zones it produced with per-operation DBM timings over that sample,
   and a timing wrapper around the store's file I/O. *)

open Rec

(* ---- mc: the expand hook ---- *)

let sample_cap = 512
let zone_rng = ref (Random.State.make [| 0 |])
let zone_seen = ref 0
let zone_sample : (int * Zone.Dbm.t) array ref = ref [||]

let reset_zone_sample seed =
  zone_rng := Random.State.make [| seed; 0x20e |];
  zone_seen := 0;
  zone_sample := [||]

(* reservoir sampling keyed on the successor's discrete state, over
   zones of the first sampled zone's dimension *)
let sample_zone (st : Mc.Explorer.state) =
  let z = st.Mc.Explorer.st_zone in
  if Array.length !zone_sample = 0 || Zone.Dbm.dim z = Zone.Dbm.dim (snd !zone_sample.(0)) then begin
  incr zone_seen;
  let item () =
    ( Mc.Explorer.hash_discrete st.Mc.Explorer.st_locs st.Mc.Explorer.st_vars
        st.Mc.Explorer.st_mon,
      Zone.Dbm.copy st.Mc.Explorer.st_zone )
  in
  if Array.length !zone_sample < sample_cap then
    zone_sample := Array.append !zone_sample [| item () |]
  else
    let j = Random.State.int !zone_rng !zone_seen in
    if j < sample_cap then !zone_sample.(j) <- item ()
  end

(* The sup query exactly as [Mc.Query.eval] evaluates it at jobs 1 —
   same delay monitor, explorer and predicate — with successor
   generation timed and counted through [expand].  Off the traced path
   this is [Mc.Query.eval] itself. *)
let eval ?ctl net (q : Mc.Query.t) =
  match q with
  | Mc.Query.Sup_delay { trigger; response; ceiling } when !Spans.enabled ->
    let clock = Mc.Query.delay_monitor_clock in
    let monitor = Mc.Monitor.delay ~trigger ~response ~clock ~ceiling () in
    let t = timed "mc.make" (fun () -> Mc.Explorer.make ~monitor net) in
    let succ_s = ref 0. and cands = ref 0 and succs = ref 0 in
    let expand pool st =
      let t0 = now () in
      let out =
        List.map
          (fun cd -> (cd, Mc.Explorer.fire t pool st cd))
          (Mc.Explorer.candidates t st)
      in
      succ_s := !succ_s +. (now () -. t0);
      List.iter
        (fun (_, s) ->
          incr cands;
          match s with
          | Some s -> incr succs; sample_zone s
          | None -> ())
        out;
      out
    in
    let t0 = now () in
    let o =
      timed "mc.search" (fun () ->
          let o =
            Mc.Explorer.sup_clock ~expand ?ctl t
              ~pred:(Mc.Explorer.mon_in t "Waiting") ~clock
          in
          Spans.add_child "mc.succ" !succ_s;
          o)
    in
    let search_ms = 1000. *. (now () -. t0) in
    let st = o.Mc.Explorer.so_stats in
    Layer.add "mc.succ_ms" (1000. *. !succ_s);
    Layer.add "mc.pw_ms" (search_ms -. (1000. *. !succ_s));
    Layer.add "mc.visited" (float_of_int st.Mc.Explorer.visited);
    Layer.add "mc.stored" (float_of_int st.Mc.Explorer.stored);
    Layer.add "mc.candidates" (float_of_int !cands);
    Layer.add "mc.successors" (float_of_int !succs);
    let outcome =
      match o.Mc.Explorer.so_interrupt with
      | Some reason -> Mc.Query.Unknown (reason, Some o.Mc.Explorer.so_sup)
      | None -> Mc.Query.Sup o.Mc.Explorer.so_sup
    in
    { Mc.Query.res_outcome = outcome; res_stats = st }
  | _ -> Mc.Query.eval ~jobs:1 ?ctl net q

let mc_metrics () =
  let search = Layer.sum "mc.search_ms" in
  [ ("mc.make_ms", Layer.median "mc.make_ms", "ms");
    ("mc.search_ms", Layer.median "mc.search_ms", "ms");
    ("mc.succ_ms", Layer.median "mc.succ_ms", "ms");
    ("mc.pw_ms", Layer.median "mc.pw_ms", "ms");
    ( "mc.states_per_s",
      (if search > 0. then Layer.sum "mc.visited" /. (search /. 1000.) else 0.),
      "1/s" );
    ("mc.visited", Layer.median "mc.visited", "count");
    ("mc.stored", Layer.median "mc.stored", "count");
    ("mc.candidates", Layer.median "mc.candidates", "count");
    ("mc.successors", Layer.median "mc.successors", "count");
    ("mc.fire_yield", Layer.ratio "mc.successors" "mc.candidates", "ratio");
    ("mc.admit_ratio", Layer.ratio "mc.stored" "mc.successors", "ratio") ]

(* ---- zone: per-operation cost over the sampled zones ---- *)

(* Nanoseconds per call of [op] over [items], repeated until at least
   [min_s] seconds were timed.  [prep] builds the operands outside the
   timed loop (mutating operations work on fresh copies). *)
let ns_per_op ?(min_s = 0.05) ~prep ~op items =
  let total = ref 0. and ops = ref 0 in
  while !total < min_s do
    let xs = Array.map prep items in
    let t0 = now () in
    Array.iter op xs;
    total := !total +. (now () -. t0);
    ops := !ops + Array.length xs
  done;
  1e9 *. !total /. float_of_int !ops

let zone_metrics () =
  let zs = !zone_sample in
  if Array.length zs = 0 then
    List.map
      (fun op -> ("zone." ^ op ^ "_ns", 0., "ns"))
      [ "canonicalize"; "includes"; "extrapolate_lu"; "up"; "constrain"; "hash" ]
    @ [ ("zone.dim", 0., "count") ]
  else begin
    let zones = Array.map snd zs in
    let dim = Zone.Dbm.dim zones.(0) in
    (* per clock, the largest finite constant seen: the L/U bounds *)
    let k = Array.make dim 0 in
    Array.iter
      (fun z ->
        for i = 1 to dim - 1 do
          List.iter
            (fun b ->
              if not (Zone.Bound.is_infinite b) then
                k.(i) <- max k.(i) (abs (Zone.Bound.constant b)))
            [ Zone.Dbm.get z i 0; Zone.Dbm.get z 0 i ]
        done)
      zones;
    (* includes on pairs that share a discrete state, as the passed
       store probes them; consecutive pairs when none do *)
    let pairs =
      let by = Hashtbl.create 64 in
      Array.iter (fun (h, z) -> Hashtbl.add by h z) zs;
      let ps = ref [] in
      Hashtbl.iter
        (fun h z ->
          List.iter (fun z' -> if z' != z then ps := (z, z') :: !ps) (Hashtbl.find_all by h))
        by;
      match !ps with
      | [] -> Array.init (Array.length zones - 1) (fun i -> (zones.(i), zones.(i + 1)))
      | ps -> Array.of_list ps
    in
    let id z = z and copy = Zone.Dbm.copy in
    let c1 = Zone.Bound.le (max 1 (k.(min 1 (dim - 1)) / 2)) in
    let ns name v = ("zone." ^ name ^ "_ns", v, "ns") in
    [ ns "canonicalize" (ns_per_op ~prep:id ~op:Zone.Dbm.canonicalize zones);
      ns "includes"
        (ns_per_op ~prep:id ~op:(fun (a, b) -> ignore (Zone.Dbm.includes a b)) pairs);
      ns "extrapolate_lu"
        (ns_per_op ~prep:copy ~op:(fun z -> Zone.Dbm.extrapolate_lu z k k) zones);
      ns "up" (ns_per_op ~prep:copy ~op:Zone.Dbm.up zones);
      ns "constrain"
        (ns_per_op ~prep:copy
           ~op:(fun z -> if dim > 1 then Zone.Dbm.constrain z 1 0 c1)
           zones);
      ns "hash" (ns_per_op ~prep:id ~op:(fun z -> ignore (Zone.Dbm.hash z)) zones);
      ("zone.dim", float_of_int dim, "count") ]
  end

(* ---- store: timed file I/O ---- *)

let timing_io (io : Fault.Io.t) : Fault.Io.t =
  let op f = if !Spans.enabled then Layer.add "store.ops" 1.; f () in
  { Fault.Io.read_file = (fun p -> op (fun () -> timed "store.read" (fun () -> io.read_file p)));
    write_file =
      (fun p s ->
        if !Spans.enabled then
          Layer.add "store.bytes_written" (float_of_int (String.length s));
        op (fun () -> timed "store.write" (fun () -> io.write_file p s)));
    rename = (fun a b -> op (fun () -> timed "store.rename" (fun () -> io.rename a b)));
    remove = (fun p -> op (fun () -> io.remove p));
    mkdir = (fun p m -> op (fun () -> io.mkdir p m));
    readdir = (fun p -> op (fun () -> io.readdir p));
    file_exists = (fun p -> op (fun () -> io.file_exists p));
    is_directory = (fun p -> op (fun () -> io.is_directory p));
    file_size = (fun p -> op (fun () -> io.file_size p)) }

let open_store ?(traced = false) dir =
  let io = if traced then timing_io Fault.Io.real else Fault.Io.real in
  match Store.Disk.open_ ~io dir with
  | Ok d -> Analysis.Qcache.make ~warn:prerr_endline d
  | Error msg -> failwith ("store " ^ dir ^ ": " ^ msg)

(* store metrics: per-answer medians of the timed operations, totals
   of the counts *)
let store_metrics () =
  [ ("store.read_ms", Layer.median "store.read_ms", "ms");
    ("store.write_ms", Layer.median "store.write_ms", "ms");
    ("store.rename_ms", Layer.median "store.rename_ms", "ms");
    ("store.ops", Layer.sum "store.ops", "count");
    ("store.bytes_written", Layer.sum "store.bytes_written", "bytes");
    ("qcache.hits", Layer.sum "qcache.hits", "count");
    ("qcache.misses", Layer.sum "qcache.misses", "count") ]
