(* Tests for the query language: parsing, evaluation, and error cases. *)

open Ta

let loc = Model.location
let edge = Model.edge

let net () =
  let worker =
    Model.automaton ~name:"W" ~initial:"Idle"
      [ loc "Idle"; loc ~inv:[ Clockcons.le "w" 8 ] "Busy"; loc "Done" ]
      [ edge ~sync:(Model.Recv "req") ~resets:[ "w" ]
          ~updates:[ ("jobs", Expr.(var "jobs" + int 1)) ]
          "Idle" "Busy";
        edge ~guard:[ Clockcons.ge "w" 2 ] ~sync:(Model.Send "resp") "Busy"
          "Done" ]
  in
  let env =
    Model.automaton ~name:"E" ~initial:"E0"
      [ loc "E0"; loc "E1"; loc "E2" ]
      [ edge ~sync:(Model.Send "req") "E0" "E1";
        edge ~sync:(Model.Recv "resp") "E1" "E2" ]
  in
  Model.network ~name:"q" ~clocks:[ "w" ]
    ~vars:[ ("jobs", Model.int_var ~min:0 ~max:5 0) ]
    ~channels:[ ("req", Model.Broadcast); ("resp", Model.Broadcast) ]
    [ worker; env ]

let run text =
  match Mc.Query.parse text with
  | Error msg -> Alcotest.failf "parse of %S failed: %s" text msg
  | Ok q -> (Mc.Query.eval (net ()) q).Mc.Query.res_outcome

let check_holds text expected =
  let holds = match run text with Mc.Query.Holds -> true | _ -> false in
  Alcotest.(check bool) text expected holds

let test_exists () =
  check_holds "E<> W.Done" true;
  check_holds "E<> W.Idle and jobs == 1" false;
  check_holds "E<> jobs >= 1" true;
  check_holds "E<> jobs >= 2" false

let test_always () =
  check_holds "A[] jobs <= 1" true;
  check_holds "A[] not W.Done" false;
  check_holds "A[] (W.Idle or W.Busy) or W.Done" true

let test_counterexample_trace () =
  match run "A[] not W.Done" with
  | Mc.Query.Fails (Some trace) ->
    Alcotest.(check bool) "trace non-empty" true (trace <> [])
  | _ -> Alcotest.fail "expected a counterexample"

let test_connective_structure () =
  (* 'and' binds tighter than 'or'; 'not' tighter than 'and'. *)
  match Mc.Query.parse "E<> not W.Done and jobs == 0 or W.Idle" with
  | Ok (Mc.Query.Exists_eventually (Mc.Query.Or (Mc.Query.And (Mc.Query.Not _, _), _))) -> ()
  | Ok _ -> Alcotest.fail "unexpected parse structure"
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_sup () =
  match run "sup: req -> resp ceiling 100" with
  | Mc.Query.Sup (Mc.Explorer.Sup (8, false)) -> ()
  | r -> Alcotest.failf "expected sup <= 8, got %a" Mc.Query.pp_outcome r

let test_bounded () =
  check_holds "bounded: req -> resp within 8" true;
  (match run "bounded: req -> resp within 7" with
   | Mc.Query.Fails None -> ()
   | r -> Alcotest.failf "expected failure, got %a" Mc.Query.pp_outcome r)

let test_parse_errors () =
  let bad text =
    match Mc.Query.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "bogus query %S accepted" text
  in
  bad "";
  bad "E<>";
  bad "sup: req resp";
  bad "bounded: req -> resp";
  bad "E<> W .";
  bad "X[] true"

(* A literal past [max_int] is a diagnosed parse error naming the
   literal, not an escaping [Failure "int_of_string"]. *)
let test_literal_overflow () =
  List.iter
    (fun text ->
      match Mc.Query.parse text with
      | Ok _ -> Alcotest.failf "overflowing literal accepted: %S" text
      | Error msg ->
        Alcotest.(check string) text
          "integer literal 99999999999999999999 is out of range" msg)
    [ "sup: req -> resp ceiling 99999999999999999999";
      "bounded: req -> resp within 99999999999999999999";
      "E<> jobs == 99999999999999999999" ];
  (* [max_int] itself still parses *)
  match Mc.Query.parse (Printf.sprintf "E<> jobs < %d" max_int) with
  | Ok (Mc.Query.Exists_eventually (Mc.Query.Cmp ("jobs", Expr.Lt, n))) ->
    Alcotest.(check int) "max_int literal" max_int n
  | Ok _ | Error _ -> Alcotest.fail "max_int literal rejected"

(* --- one evaluation path ---------------------------------------------- *)

let test_expand_sequential_only () =
  let q = Mc.Query.Sup_delay { trigger = "req"; response = "resp"; ceiling = 100 } in
  let t = Mc.Query.explorer (net ()) q in
  let expand pool st =
    List.map
      (fun cd -> (cd, Mc.Explorer.fire t pool st cd))
      (Mc.Explorer.candidates t st)
  in
  (match Mc.Query.run ~jobs:2 ~expand t q with
   | _ -> Alcotest.fail "expand accepted at jobs=2"
   | exception Invalid_argument _ -> ());
  (* at jobs=1 the hook drives the search, to the inline answer *)
  let hooked = Mc.Query.run ~expand t q and inline = Mc.Query.run t q in
  Alcotest.(check bool) "same result through the hook" true (hooked = inline)

(* The GPCA bolus PSM of Table I: [Queries.max_delay] is the sup query
   of [Mc.Query], so the sup and the statistics agree exactly. *)
let table1_psm =
  lazy
    (Gpca.Model.psm ~variant:Gpca.Model.Bolus_only Gpca.Params.default)
      .Transform.psm_net

let test_max_delay_is_sup_query () =
  let psm = Lazy.force table1_psm in
  let m = Gpca.Model.bolus_req and c = Gpca.Model.start_infusion in
  List.iter
    (fun (trigger, response, expected) ->
      let d =
        Analysis.Queries.max_delay psm ~trigger ~response ~ceiling:2860
      in
      let r =
        Mc.Query.eval psm
          (Mc.Query.Sup_delay { trigger; response; ceiling = 2860 })
      in
      Alcotest.(check bool) (trigger ^ ": Table-I sup") true
        (r.Mc.Query.res_outcome
         = Mc.Query.Sup (Mc.Explorer.Sup (expected, false)));
      Alcotest.(check bool) (trigger ^ ": same sup") true
        (r.Mc.Query.res_outcome = Mc.Query.Sup d.Analysis.Queries.dr_sup);
      Alcotest.(check bool) (trigger ^ ": same stats") true
        (r.Mc.Query.res_stats = d.Analysis.Queries.dr_stats))
    [ (m, Transform.Names.input_chan m, 490);
      (Transform.Names.output_chan c, c, 440);
      (m, c, 1430) ]

(* [psv verify --bound B] judges [max_delay ~ceiling:B] with
   [Queries.verdict_of_delay]; [bounded: ... within B] is [Mc.Query]'s
   [Bounded_response].  Both read the one bounded ladder. *)
let test_verify_bound_is_bounded_query () =
  let psm = Lazy.force table1_psm in
  let m = Gpca.Model.bolus_req in
  let trigger = m and response = Transform.Names.input_chan m in
  List.iter
    (fun (bound, expect_holds) ->
      let verify =
        Analysis.Queries.verdict_of_delay ~bound
          (Analysis.Queries.max_delay psm ~trigger ~response ~ceiling:bound)
      in
      let query =
        (Mc.Query.eval psm
           (Mc.Query.Bounded_response { trigger; response; bound }))
          .Mc.Query.res_outcome
      in
      let label = Printf.sprintf "within %d" bound in
      (match verify, query with
       | Mc.Explorer.Proved, Mc.Query.Holds when expect_holds -> ()
       | Mc.Explorer.Refuted _, Mc.Query.Fails _ when not expect_holds -> ()
       | _ ->
         Alcotest.failf "%s: verify %a, query %a" label Mc.Explorer.pp_verdict
           verify Mc.Query.pp_outcome query))
    [ (489, false); (490, true) ]

let suite =
  [ Alcotest.test_case "E<> queries" `Quick test_exists;
    Alcotest.test_case "A[] queries" `Quick test_always;
    Alcotest.test_case "counterexample trace" `Quick test_counterexample_trace;
    Alcotest.test_case "connective precedence" `Quick
      test_connective_structure;
    Alcotest.test_case "sup query" `Quick test_sup;
    Alcotest.test_case "bounded query" `Quick test_bounded;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "integer literal overflow" `Quick test_literal_overflow;
    Alcotest.test_case "expand is sequential-only" `Quick
      test_expand_sequential_only;
    Alcotest.test_case "max_delay = sup query (Table I)" `Slow
      test_max_delay_is_sup_query;
    Alcotest.test_case "verify --bound = bounded query" `Slow
      test_verify_bound_is_bounded_query ]
