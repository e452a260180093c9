(* table1-cold: the paper's headline artifact.  One answer is the whole
   verified Table-I row — the GPCA bolus PSM built from its PIM and the
   Table-I scheme, then the input, output and M-C sup queries — with no
   store, so every answer does the same work and the samples have the
   same size.  The row is correct only if the sups are exactly the
   paper's verified bounds. *)

open Rec

let params = Gpca.Params.default

let pim () = Gpca.Model.pim ~variant:Gpca.Model.Bolus_only params

(* The Table-I scheme restricted to the bolus-only boundary, as
   [Gpca.Model.psm ~variant:Bolus_only] restricts it. *)
let scheme () =
  let s = Gpca.Params.scheme params in
  { s with
    Scheme.is_inputs =
      List.filter (fun (m, _) -> m = Gpca.Model.bolus_req) s.Scheme.is_inputs;
    is_outputs =
      List.filter
        (fun (c, _) ->
          c = Gpca.Model.start_infusion || c = Gpca.Model.stop_infusion)
        s.Scheme.is_outputs }

(* name, query, the paper's verified bound (Table I) *)
let queries =
  let ceiling = 2 * (Gpca.Experiment.analytic_bounds params).Gpca.Experiment.a_mc in
  let sup trigger response = Mc.Query.Sup_delay { trigger; response; ceiling } in
  let m = Gpca.Model.bolus_req and c = Gpca.Model.start_infusion in
  [ ("input", sup m (Transform.Names.input_chan m), 490);
    ("output", sup (Transform.Names.output_chan c) c, 440);
    ("mc", sup m c, 1430) ]

let expected_sup (r : Mc.Query.result) v =
  r.Mc.Query.res_outcome = Mc.Query.Sup (Mc.Explorer.Sup (v, false))

(* Everything before the first answer of a `table1` run: the PIM and
   scheme construction, the transform and the three explorers.  One
   set-up takes about a millisecond, so a sample times back-to-back
   set-ups for at least 50 ms and reports the time of one; timing a
   single one would mostly measure timer jitter. *)
let setup_once () =
  let psm = Transform.psm_of_pim (pim ()) (scheme ()) in
  List.iter
    (fun (_, q, _) ->
      match q with
      | Mc.Query.Sup_delay { trigger; response; ceiling } ->
        let monitor =
          Mc.Monitor.delay ~trigger ~response
            ~clock:Mc.Query.delay_monitor_clock ~ceiling ()
        in
        ignore (Mc.Explorer.make ~monitor psm.Transform.psm_net)
      | _ -> ())
    queries

let setup_sample () =
  Gc.compact ();
  let t0 = now () and n = ref 0 in
  while now () -. t0 < 0.05 do
    setup_once ();
    incr n
  done;
  (now () -. t0) /. float_of_int !n

let run ~seconds =
  (* the first sample also pays for growing the heap; it is dropped *)
  let setup_s = List.tl (List.init 8 (fun _ -> Spans.span "setup" setup_sample)) in
  let pim = pim () and scheme = scheme () in
  let answers = ref [] and rounds = ref [] in
  let t_start = now () in
  while !answers = [] || now () -. t_start < seconds do
    Spans.answer_id := List.length !answers;
    (* each row starts from a compacted heap, as a fresh process would *)
    Gc.compact ();
    let results, a =
      measure ~cls:"row" (fun () ->
          let answer () =
            let psm = timed "transform.psm" (fun () -> Transform.psm_of_pim pim scheme) in
            List.map (fun (_, q, _) -> Probe.eval psm.Transform.psm_net q) queries
          in
          Spans.span "answer" answer)
    in
    Layer.flush ();
    let ok = List.for_all2 (fun r (_, _, v) -> expected_sup r v) results queries in
    answers := { a with a_ok = ok } :: !answers;
    rounds :=
      List.concat
        (List.map2
           (fun r (name, _, _) ->
             let s = r.Mc.Query.res_stats in
             [ (name ^ ".visited", s.Mc.Explorer.visited);
               (name ^ ".stored", s.Mc.Explorer.stored) ])
           results queries)
      :: !rounds
  done;
  let busy_s = now () -. t_start in
  let counters, mismatches = Wl.check_rounds !rounds in
  { Wl.setup_s; answers = List.rev !answers; busy_s; counters; mismatches;
    rss_mb = peak_rss_mb "self"; alloc_mb = None; pct_class = None }
