(* Tests for the textual model format: hand-written inputs, error
   reporting, and the print->parse round-trip on fixed and random
   networks (including a generated PSM, the most feature-dense network
   the library produces). *)

open Ta

let roundtrip net =
  let text = Xta.Print.to_string net in
  match Xta.Parse.network text with
  | Ok net2 -> (text, Xta.Print.to_string net2)
  | Error msg -> Alcotest.failf "re-parse failed: %s@.%s" msg text

let check_roundtrip name net =
  let first, second = roundtrip net in
  Alcotest.(check string) name first second

let test_parse_minimal () =
  let source =
    {|
// a comment
network tiny;

clock x;
int[0,3] n = 1;
broadcast chan go;
chan ack;

process P {
  state
    A { x <= 5 },
    B;
  commit B;
  init A;
  trans
    A -> B { guard x >= 2 && x <= 4; when n != 3; sync go!;
             reset x; assign n := n + 1; };
}
|}
  in
  match Xta.Parse.network source with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    Alcotest.(check string) "name" "tiny" net.Model.net_name;
    Alcotest.(check (list string)) "clocks" [ "x" ] net.Model.net_clocks;
    let a = Model.find_automaton net "P" in
    Alcotest.(check int) "locations" 2 (List.length a.Model.aut_locations);
    let b = Model.find_location a "B" in
    Alcotest.(check bool) "committed" true (b.Model.loc_kind = Model.Committed);
    (match a.Model.aut_edges with
     | [ e ] ->
       Alcotest.(check int) "guard atoms" 2 (List.length e.Model.edge_guard);
       Alcotest.(check bool) "sync" true (e.Model.edge_sync = Model.Send "go");
       Alcotest.(check (list string)) "resets" [ "x" ] e.Model.edge_resets;
       Alcotest.(check int) "updates" 1 (List.length e.Model.edge_updates)
     | edges -> Alcotest.failf "expected 1 edge, got %d" (List.length edges))

let test_parse_errors_have_lines () =
  let check_error source =
    match Xta.Parse.network source with
    | Ok _ -> Alcotest.failf "bogus input accepted: %s" source
    | Error msg ->
      Alcotest.(check bool)
        (Fmt.str "error mentions a line: %s" msg)
        true
        (String.length msg > 5 && String.sub msg 0 5 = "line ")
  in
  check_error "netwrk x;";
  check_error "network x; process P { }";
  check_error "network x; clock 42;";
  check_error "network x; process P { state A; init A; trans A -> B { sync q; }; }";
  check_error "network x; int[0] v = 0;"

let test_lexer_rejects_garbage () =
  match Xta.Parse.network "network x; \x01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "control character accepted"

(* An integer literal past [max_int] is a lexer error with its line,
   not an escaping [Failure "int_of_string"]. *)
let test_literal_overflow () =
  let source =
    "network x;\nclock c;\nprocess P {\n  state A { c <= \
     99999999999999999999 };\n  init A;\n}\n"
  in
  match Xta.Parse.network source with
  | Ok _ -> Alcotest.fail "overflowing literal accepted"
  | Error msg ->
    Alcotest.(check string) "diagnosis"
      "line 4: integer literal 99999999999999999999 is out of range" msg

let test_roundtrip_gpca () =
  check_roundtrip "gpca PIM"
    (Gpca.Model.network Gpca.Params.default)

let test_roundtrip_gpca_psm () =
  check_roundtrip "gpca PSM"
    (Gpca.Model.psm Gpca.Params.default).Transform.psm_net

let test_roundtrip_preserves_semantics () =
  (* Beyond text equality: the re-parsed network verifies identically. *)
  let net = Gpca.Model.network ~variant:Gpca.Model.Bolus_only Gpca.Params.default in
  let text = Xta.Print.to_string net in
  match Xta.Parse.network text with
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg
  | Ok net2 ->
    let sup n =
      (Analysis.Queries.max_delay n ~trigger:Gpca.Model.bolus_req
         ~response:Gpca.Model.start_infusion ~ceiling:1000)
        .Analysis.Queries.dr_sup
    in
    Alcotest.(check bool) "same verified bound" true (sup net = sup net2)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"print/parse round-trip on random networks"
    ~count:200 Gen.arb_network
    (fun net ->
      let text = Xta.Print.to_string net in
      match Xta.Parse.network text with
      | Error msg -> QCheck.Test.fail_reportf "re-parse failed: %s@.%s" msg text
      | Ok net2 ->
        let text2 = Xta.Print.to_string net2 in
        if text = text2 then true
        else
          QCheck.Test.fail_reportf "unstable round-trip:@.%s@.vs@.%s" text text2)

(* Random data expressions survive the trip through an edge assign. *)
let prop_roundtrip_expressions =
  let gen_net_with_pred =
    let open QCheck.Gen in
    let gen_expr =
      sized
      @@ fix (fun self n ->
             if n <= 0 then
               oneof
                 [ map Expr.int (int_range (-9) 9);
                   return (Expr.var "v") ]
             else
               let sub = self (n / 2) in
               oneof
                 [ map2 (fun a b -> Expr.Add (a, b)) sub sub;
                   map2 (fun a b -> Expr.Sub (a, b)) sub sub;
                   map2 (fun a b -> Expr.Mul (a, b)) sub sub;
                   map (fun a -> Expr.Neg a) sub ])
    in
    let* rhs = gen_expr in
    let* lhs = gen_expr in
    let a =
      Ta.Model.automaton ~name:"P" ~initial:"A"
        [ Ta.Model.location "A" ]
        [ Ta.Model.edge
            ~pred:(Expr.le lhs rhs)
            ~updates:[ ("v", rhs) ]
            "A" "A" ]
    in
    return
      (Ta.Model.network ~name:"exprs" ~clocks:[]
         ~vars:[ ("v", Ta.Model.int_var ~min:(-1000) ~max:1000 0) ]
         ~channels:[] [ a ])
  in
  QCheck.Test.make ~name:"round-trip preserves expressions" ~count:300
    (QCheck.make ~print:(Fmt.to_to_string Ta.Model.pp) gen_net_with_pred)
    (fun net ->
      let text = Xta.Print.to_string net in
      match Xta.Parse.network text with
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s@.%s" msg text
      | Ok net2 -> Xta.Print.to_string net2 = text)

let suite =
  [ Alcotest.test_case "parse a hand-written model" `Quick test_parse_minimal;
    Alcotest.test_case "errors carry line numbers" `Quick
      test_parse_errors_have_lines;
    Alcotest.test_case "lexer rejects garbage" `Quick test_lexer_rejects_garbage;
    Alcotest.test_case "integer literal overflow" `Quick test_literal_overflow;
    Alcotest.test_case "round-trip: GPCA PIM" `Quick test_roundtrip_gpca;
    Alcotest.test_case "round-trip: GPCA PSM" `Quick test_roundtrip_gpca_psm;
    Alcotest.test_case "round-trip preserves semantics" `Quick
      test_roundtrip_preserves_semantics;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_roundtrip_expressions ]
