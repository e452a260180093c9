(* edit-loop: the paper's edit-one-constant workflow.  A seeded
   [Incr.Edit.tweak_constant] sequence over the GPCA bolus PSM is
   re-verified edit by edit through [Incr.Session.run] with a store on
   disk, exercising the incremental ladder (cone check, delta replay of
   the recorded zone graph) and the store's write path.

   Before measuring, every edit is answered from scratch once under a
   visited-state budget: an edit whose zone graph grows or shrinks too
   much is skipped (the budget is exact, so the choice does not depend
   on timing), and the scratch answers are the values each timed
   answer must equal.

   A round replays the whole sequence from a fresh store: set-up (the
   transform, opening the store, the cold run that warms it) is timed
   as one [setup_s] sample, then each edit is one answer.  Rounds
   repeat until the time is up, and only whole rounds run, so every
   edit weighs the same in the median however fast the host is; every
   round does the same exact work. *)

open Rec

let draws = 400

(* the input-delay query of Table I: the cheapest of the three, so a
   round holds many answers *)
let query =
  match List.find (fun (n, _, _) -> n = "input") W_table1.queries with
  | _, q, _ -> q

(* verdict, sup and exploration statistics as the store renders them *)
let answer_text (r : Mc.Query.result) =
  Store.Json.to_string
    (Store.Json.Obj
       [ ("outcome",
          Store.Entry.outcome_to_json
            (Analysis.Qcache.outcome_to_entry r.Mc.Query.res_outcome));
         ("stats",
          Store.Entry.stats_to_json (Analysis.Qcache.stats_to_entry r.Mc.Query.res_stats)) ])

(* the constant an edit changes: its description up to the new value *)
let site desc =
  let n = String.length desc in
  let rec find i =
    if i + 4 > n then desc
    else if String.sub desc i 4 = " -> " then String.sub desc 0 i
    else find (i + 1)
  in
  find 0

(* The seeded edit sequence with each edit's scratch answer.  Every
   edit changes one constant of the unedited model, and every constant
   that [Incr.Edit.tweak_constant] reaches is edited once, in a fixed
   order: the seed picks the amounts, not which parts of the model are
   edited nor the order (each edit is replayed against the previous
   one's graph), so the work of a round hardly depends on it.  An edit
   is kept only when its scratch run visits within 10% of the unedited
   model's states (the budget makes this exact), so the answers stay
   the same size. *)
let edits ~seed base =
  let r0 = Probe.eval base query in
  if not (W_table1.expected_sup r0 490) then failwith "edit-loop: unedited model off Table I";
  let v0 = r0.Mc.Query.res_stats.Mc.Explorer.visited in
  let rng = Random.State.make [| seed; 0xed17 |] in
  let seen = Hashtbl.create 32 in
  let candidates =
    List.sort
      (fun (a : Incr.Edit.edit) (b : Incr.Edit.edit) ->
        compare (site a.Incr.Edit.ed_desc) (site b.Incr.Edit.ed_desc))
      (List.fold_left
         (fun acc _ ->
           match Incr.Edit.tweak_constant rng base with
           | Some ed when not (Hashtbl.mem seen (site ed.Incr.Edit.ed_desc)) ->
             Hashtbl.replace seen (site ed.Incr.Edit.ed_desc) ();
             ed :: acc
           | Some _ | None -> acc)
         [] (List.init draws Fun.id))
  in
  List.filter_map
    (fun (ed : Incr.Edit.edit) ->
      let ctl =
        Mc.Runctl.create ~budget:{ Mc.Runctl.no_budget with b_states = Some (v0 + (v0 / 10)) } ()
      in
      let r = Spans.span "scratch" (fun () -> Probe.eval ~ctl ed.Incr.Edit.ed_net query) in
      Layer.flush ();
      match r.Mc.Query.res_outcome with
      | Mc.Query.Unknown _ -> None
      | _ when 10 * abs (r.Mc.Query.res_stats.Mc.Explorer.visited - v0) > v0 -> None
      | _ -> Some (ed.Incr.Edit.ed_net, answer_text r))
    candidates

let rung_key = function
  | Incr.Session.Store_hit -> "store"
  | Incr.Session.Cone_hit -> "cone"
  | Incr.Session.Delta -> "delta"
  | Incr.Session.Full -> "full"

let run ~seed ~seconds ~traced ~dir =
  let pim = W_table1.pim () and scheme = W_table1.scheme () in
  let base = (Transform.psm_of_pim pim scheme).Transform.psm_net in
  let edits = edits ~seed base in
  if edits = [] then failwith "edit-loop: every seeded edit was intractable";
  let setup_s = ref [] and answers = ref [] and rounds = ref [] and busy = ref 0. in
  let t_start = now () in
  let round = ref 0 in
  while !rounds = [] || now () -. t_start < seconds do
    incr round;
    let store_dir = Filename.concat dir (Printf.sprintf "store-%d" !round) in
    (* every round starts from a compacted heap *)
    Gc.compact ();
    let t0 = now () in
    let cache, sess =
      Spans.span "setup" (fun () ->
          let net =
            (timed "transform.psm" (fun () -> Transform.psm_of_pim pim scheme)).Transform.psm_net
          in
          let cache = Probe.open_store ~traced store_dir in
          let sess = Incr.Session.make ~cache ~tag:"gpca:input" () in
          ignore (Incr.Session.run sess net query);
          (cache, sess))
    in
    setup_s := (now () -. t0) :: !setup_s;
    Layer.flush ();
    let counts = Hashtbl.create 4 and counters = ref [] in
    let t_round = now () in
    List.iteri
      (fun i (net, expected) ->
        Spans.answer_id := List.length !answers;
        let o, a =
          measure ~cls:"" (fun () ->
              Spans.span "answer" (fun () ->
                  timed "incr.session" (fun () -> Incr.Session.run sess net query)))
        in
        let rung = rung_key o.Incr.Session.so_rung in
        let explore = rung = "delta" || rung = "full" in
        let ok = answer_text o.Incr.Session.so_result = expected in
        answers := { a with a_ok = ok; a_class = (if explore then "explore" else "reuse") } :: !answers;
        Hashtbl.replace counts rung (1 + Option.value ~default:0 (Hashtbl.find_opt counts rung));
        if traced && explore then begin
          Layer.add ("incr.answer_ms." ^ rung) o.Incr.Session.so_answer_ms;
          Layer.add "incr.persist_ms" (a.a_ms -. o.Incr.Session.so_answer_ms)
        end;
        Layer.add "incr.replayed" (float_of_int o.Incr.Session.so_replayed);
        Layer.add "incr.fired"
          (float_of_int (o.Incr.Session.so_replayed + o.Incr.Session.so_expanded));
        Layer.flush ();
        let s = o.Incr.Session.so_result.Mc.Query.res_stats in
        counters :=
          [ (Printf.sprintf "e%d.rung.%s" i rung, 1);
            (Printf.sprintf "e%d.visited" i, s.Mc.Explorer.visited);
            (Printf.sprintf "e%d.stored" i, s.Mc.Explorer.stored);
            (Printf.sprintf "e%d.replayed" i, o.Incr.Session.so_replayed);
            (Printf.sprintf "e%d.expanded" i, o.Incr.Session.so_expanded) ]
          @ !counters)
      edits;
    busy := !busy +. (now () -. t_round);
    List.iter
      (fun r ->
        Layer.add ("incr.rung." ^ r)
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts r))))
      [ "store"; "cone"; "delta"; "full" ];
    Layer.add "qcache.hits" (float_of_int (Analysis.Qcache.hits cache));
    Layer.add "qcache.misses" (float_of_int (Analysis.Qcache.misses cache));
    Layer.flush ();
    rounds := List.rev !counters :: !rounds;
    Wl.rm_rf store_dir
  done;
  let counters, mismatches = Wl.check_rounds !rounds in
  { Wl.setup_s = !setup_s; answers = List.rev !answers; busy_s = !busy; counters;
    mismatches; rss_mb = peak_rss_mb "self"; alloc_mb = None;
    pct_class = Some "explore" }
