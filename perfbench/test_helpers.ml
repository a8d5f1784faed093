(* Self-tests for the benchmark's own helpers: the median, the fingerprint
   comparator and the span recorder. spread.py's quartile and run-agreement
   helpers are tested by test_spread.py. *)

open Vatbench_lib

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3. (Stat.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stat.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "single" 7. (Stat.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stat.median: no samples")
    (fun () -> ignore (Stat.median []))

let fp =
  { Fp.outcome = "exited 0"; cycles = 100; insns = 10; digest = 0xabc; stats = 7 }

let test_fingerprint () =
  Alcotest.(check (list string)) "equal" [] (Fp.diff fp fp);
  Alcotest.(check (list string)) "cycles and digest" [ "cycles"; "digest" ]
    (Fp.diff fp { fp with cycles = 101; digest = 0 });
  Alcotest.(check (list string)) "stats compared" [ "stats" ]
    (Fp.diff fp { fp with stats = 8 });
  Alcotest.(check (list string)) "stats ignored" []
    (Fp.diff ~stats:false fp { fp with stats = 0 });
  Alcotest.(check (list string)) "outcome" [ "outcome"; "insns" ]
    (Fp.diff fp { fp with outcome = "out of fuel"; insns = 3 })

let test_spans () =
  let s = Span.create ~enabled:true in
  let r =
    Span.with_ s "outer" (fun () ->
        Span.with_ s "inner" (fun () -> ());
        Span.with_ s "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "result" 42 r;
  let spans = Span.spans s in
  Alcotest.(check (list string)) "finish order" [ "inner"; "inner"; "outer" ]
    (List.map (fun (x : Span.span) -> x.name) spans);
  let outer = List.find (fun (x : Span.span) -> x.name = "outer") spans in
  Alcotest.(check bool) "parents" true
    (List.for_all
       (fun (x : Span.span) -> x.name = "outer" || x.parent = outer.id)
       spans);
  (match List.assoc_opt "inner" (Span.summary s) with
   | Some (n, total, self) ->
     Alcotest.(check int) "calls" 2 n;
     Alcotest.check close "leaf self = total" total self
   | None -> Alcotest.fail "no inner summary");
  let off = Span.create ~enabled:false in
  Alcotest.(check int) "disabled passes through" 3 (Span.with_ off "x" (fun () -> 3));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Span.spans off))

let () =
  Alcotest.run "vatbench"
    [ ( "helpers",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "fingerprint comparator" `Quick test_fingerprint;
          Alcotest.test_case "spans" `Quick test_spans ] ) ]
