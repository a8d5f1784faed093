(* Fabric tests: two guests sharing the tile pool must both run correctly
   under static and dynamic translator splits, and dynamic sharing must
   actually trade tiles. *)

open Vat_core
open Vat_workloads

let progs () = (Suite.load (Suite.find "gcc"), Suite.load (Suite.find "gzip"))

let exits name (r : Fabric.guest_result) =
  match r.outcome with
  | Exec.Exited _ -> ()
  | Exec.Fault m -> Alcotest.failf "%s faulted: %s" name m
  | Exec.Out_of_fuel -> Alcotest.failf "%s out of fuel" name

let test_static () =
  let a, b = progs () in
  let r = Fabric.run ~policy:(Fabric.Static (3, 3)) (a, "a") (b, "b") in
  exits "guest a" r.a;
  exits "guest b" r.b;
  Alcotest.(check int) "no trades under static" 0 r.trades;
  Alcotest.(check int) "makespan is the later finish" r.makespan
    (max r.a.cycles r.b.cycles)

let test_static_rejects_bad_split () =
  let a, b = progs () in
  Alcotest.check_raises "overcommitted split"
    (Invalid_argument "Fabric.run: bad static split") (fun () ->
      ignore (Fabric.run ~policy:(Fabric.Static (6, 6)) (a, "a") (b, "b")))

let test_shared_trades_and_helps () =
  let a, b = progs () in
  let s = Fabric.run ~policy:(Fabric.Static (3, 3)) (a, "a") (b, "b") in
  let a, b = progs () in
  let d =
    Fabric.run ~policy:(Fabric.Shared { dwell = 20000 }) (a, "a") (b, "b")
  in
  exits "shared a" d.a;
  exits "shared b" d.b;
  if d.trades < 1 then Alcotest.fail "expected at least one tile trade";
  (* Dynamic sharing must not be much worse than the static split, and the
     long guest should benefit from the short one's donated tiles. *)
  if float_of_int d.makespan > 1.02 *. float_of_int s.makespan then
    Alcotest.failf "sharing hurt makespan: %d vs %d" d.makespan s.makespan

let test_outcomes_match_solo () =
  (* Exit codes on the shared fabric equal the solo-VM exit codes. *)
  let solo prog =
    match (Vm.run ~fuel:50_000_000 Config.default prog).outcome with
    | Exec.Exited n -> n
    | _ -> Alcotest.fail "solo run did not exit"
  in
  let code_a = solo (Suite.load (Suite.find "gcc")) in
  let code_b = solo (Suite.load (Suite.find "gzip")) in
  let a, b = progs () in
  let r = Fabric.run ~policy:(Fabric.Shared { dwell = 20000 }) (a, "a") (b, "b") in
  (match r.a.outcome with
   | Exec.Exited n -> Alcotest.(check int) "guest a exit code" code_a n
   | _ -> Alcotest.fail "guest a did not exit");
  match r.b.outcome with
  | Exec.Exited n -> Alcotest.(check int) "guest b exit code" code_b n
  | _ -> Alcotest.fail "guest b did not exit"

let test_cycle_limit () =
  let a, b = progs () in
  Alcotest.check_raises "cycle limit" (Failure "fabric cycle limit") (fun () ->
      ignore
        (Fabric.run ~max_cycles:1_000 ~policy:(Fabric.Static (3, 3)) (a, "a")
           (b, "b")))

let suite =
  [ Alcotest.test_case "static split" `Slow test_static;
    Alcotest.test_case "bad split rejected" `Quick test_static_rejects_bad_split;
    Alcotest.test_case "small max_cycles fails" `Quick test_cycle_limit;
    Alcotest.test_case "dynamic sharing trades tiles" `Slow
      test_shared_trades_and_helps;
    Alcotest.test_case "fabric outcomes match solo runs" `Slow
      test_outcomes_match_solo ]
