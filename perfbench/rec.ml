(* Measurement plumbing shared by the workloads: the wall clock,
   per-answer samples, per-layer accumulators and the span trace.  All
   of it lives in the benchmark process and wraps calls into the
   libraries' public functions from the outside. *)

let now = Unix.gettimeofday

(* ---- statistics ---- *)

(* Nearest-rank quantile of a non-empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (r - 1)))

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A percentile is reported only when at least ten samples lie beyond
   it, so it never rests on the one or two slowest answers. *)
let reportable n q = float_of_int n *. (1. -. q) >= 10.

(* ---- one answer ---- *)

type answer = {
  a_ms : float;
  a_ok : bool;
  a_alloc_b : float;  (* bytes allocated during the answer *)
  a_class : string;  (* population the answer belongs to *)
}

let allocated (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* Peak resident set of a process, from /proc ([VmHWM]). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.
        | exception _ -> acc)
      0. (String.split_on_char '\n' text)

(* ---- per-layer accumulators ----

   Values added between two [flush]es form one sample per key (one
   answer, one search, one round); a layer metric reports the median
   sample, or a ratio of sums. *)
module Layer = struct
  let scope : (string, float) Hashtbl.t = Hashtbl.create 64
  let samples : (string, float list) Hashtbl.t = Hashtbl.create 64
  let sums : (string, float) Hashtbl.t = Hashtbl.create 64

  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

  let add k v = bump scope k v; bump sums k v

  let flush () =
    Hashtbl.iter
      (fun k v ->
        Hashtbl.replace samples k
          (v :: Option.value ~default:[] (Hashtbl.find_opt samples k)))
      scope;
    Hashtbl.reset scope

  let reset () = Hashtbl.reset scope; Hashtbl.reset samples; Hashtbl.reset sums
  let median k = median (Option.value ~default:[] (Hashtbl.find_opt samples k))
  let sum k = Option.value ~default:0. (Hashtbl.find_opt sums k)
  let ratio a b = if sum b > 0. then sum a /. sum b else 0.
end

(* ---- spans ----

   A span records name, start, end, parent and the id of the answer it
   belongs to.  Self time is a span's duration minus the part its
   children cover; [add_child] attributes time measured inside the
   current span (summed over many short intervals, e.g. successor
   generation) as a child without recording one span per interval. *)
module Spans = struct
  type span = {
    sp_id : int;
    sp_name : string;
    sp_parent : int;  (* -1 for a root *)
    sp_answer : int;
    sp_t0 : float;
    sp_t1 : float;
  }

  let enabled = ref false
  let answer_id = ref 0
  let next_id = ref 0
  let kept : span list ref = ref []
  let n_kept = ref 0
  let max_kept = 20_000  (* spans written to the trace file *)

  (* the open spans, innermost first: id and child time covered *)
  let stack : (int * float ref) list ref = ref []

  (* per name: calls, total seconds, self seconds *)
  let table : (string, int ref * float ref * float ref) Hashtbl.t = Hashtbl.create 32
  let roots_s = ref 0.

  let account name ~total ~self =
    let c, t, s =
      match Hashtbl.find_opt table name with
      | Some e -> e
      | None ->
        let e = (ref 0, ref 0., ref 0.) in
        Hashtbl.replace table name e;
        e
    in
    incr c;
    t := !t +. total;
    s := !s +. self

  let add_child name secs =
    if !enabled then
    match !stack with
    | (_, covered) :: _ ->
      covered := !covered +. secs;
      account name ~total:secs ~self:secs
    | [] -> ()

  let span name f =
    if not !enabled then f () else
    let id = !next_id in
    incr next_id;
    let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
    let covered = ref 0. in
    stack := (id, covered) :: !stack;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
    let t1 = now () in
    let d = t1 -. t0 in
    account name ~total:d ~self:(d -. !covered);
    (match !stack with
     | (_, pc) :: _ -> pc := !pc +. d
     | [] -> roots_s := !roots_s +. d);
    if !n_kept < max_kept then begin
      incr n_kept;
      kept :=
        { sp_id = id; sp_name = name; sp_parent = parent;
          sp_answer = !answer_id; sp_t0 = t0; sp_t1 = t1 }
        :: !kept
    end;
    r

  (* Chrome trace-event JSON: one complete ("X") event per span. *)
  let write_chrome path ~meta =
    let spans = List.rev !kept in
    let base = match spans with s :: _ -> s.sp_t0 | [] -> 0. in
    let us t = Printf.sprintf "%.1f" (1e6 *. (t -. base)) in
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%s,\"dur\":%s,\
           \"args\":{\"id\":%d,\"parent\":%d,\"answer\":%d}}\n"
          (if i = 0 then "" else ",")
          s.sp_name (us s.sp_t0)
          (Printf.sprintf "%.1f" (1e6 *. (s.sp_t1 -. s.sp_t0)))
          s.sp_id s.sp_parent s.sp_answer)
      spans;
    Printf.fprintf oc "],\"otherData\":%s}\n" meta;
    close_out oc
end

let word_bytes = float_of_int (Sys.word_size / 8)

(* [measure ~cls f] runs [f] and returns its result with an answer
   record whose [a_ok] the caller fills in once it has checked the
   result outside the timed interval.  When tracing, the collector's
   work during the answer goes to the gc.* layer metrics. *)
let measure ~cls f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  if !Spans.enabled then begin
    Layer.add "gc.answers" 1.;
    Layer.add "gc.minor" (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
    Layer.add "gc.major" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    Layer.add "gc.promoted_mb"
      (word_bytes *. (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1048576.)
  end;
  ( r,
    { a_ms = 1000. *. (t1 -. t0);
      a_ok = false;
      a_alloc_b = word_bytes *. (allocated g1 -. allocated g0);
      a_class = cls } )

(* [timed name f] times one call into a layer: adds its milliseconds to
   the layer metric [name ^ "_ms"] and records a span, when tracing is
   on; otherwise it is just [f ()], as is [Spans.span]. *)
let timed name f =
  if not !Spans.enabled then f ()
  else begin
    let t0 = now () in
    let r = Spans.span name f in
    Layer.add (name ^ "_ms") (1000. *. (now () -. t0));
    r
  end
