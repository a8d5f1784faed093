(* End-to-end tests of the timed virtual machine: functional equivalence
   with the reference interpreter must hold under every architecture
   configuration, and timing invariants (nonzero cycles, slowdown > 1 vs
   the PIII model, chaining/speculation actually engaging) must hold. *)

open Vat_desim
open Vat_guest
open Vat_core
open Vat_refmodel

let fuel = 2_000_000

let run_both ?input ?(cfg = Config.default) items =
  let prog_i = Program.of_asm items in
  let interp = Interp.create ?input prog_i in
  let oi = Interp.run ~fuel interp in
  let prog_v = Program.of_asm items in
  let rv = Vm.run ?input ~fuel cfg prog_v in
  (oi, interp, rv)

let check_same ?input ?cfg items =
  let oi, interp, rv = run_both ?input ?cfg items in
  (match (oi, rv.outcome) with
   | Interp.Exited a, Exec.Exited b when a = b -> ()
   | Interp.Fault _, Exec.Fault _ -> ()
   | _ ->
     Alcotest.failf "outcomes differ: interp=%s vm=%s"
       (match oi with
        | Interp.Exited n -> Printf.sprintf "exit %d" n
        | Interp.Fault m -> "fault " ^ m
        | Interp.Out_of_fuel -> "fuel")
       (match rv.outcome with
        | Exec.Exited n -> Printf.sprintf "exit %d" n
        | Exec.Fault m -> "fault " ^ m
        | Exec.Out_of_fuel -> "fuel"));
  (match oi with
   | Interp.Exited _ ->
     Alcotest.(check string) "output" (Interp.output interp) rv.output;
     Alcotest.(check bool) "digest" true (Interp.digest interp = rv.digest)
   | Interp.Fault _ | Interp.Out_of_fuel -> ());
  rv

open Asm.Dsl

let looped_sum =
  [ label "start";
    mov (r esi) (isym "data");
    mov (r eax) (i 0);
    mov (r ecx) (i 2000);
    label "loop";
    add (r eax) (r ecx);
    mov (m ~base:esi ~disp:0 ()) (r eax);
    add (r eax) (m ~base:esi ~disp:0 ());
    dec (r ecx);
    jne "loop";
    mov (r ebx) (r eax);
    and_ (r ebx) (i 0x7F);
    mov (r eax) (i Syscall.sys_exit);
    int_ Syscall.vector;
    (* Keep data off the code pages so stores don't look self-modifying. *)
    Asm.Align 4096;
    label "data";
    Asm.Space 64 ]

let vm_basic () = ignore (check_same looped_sum)

let vm_configs () =
  let base = Config.default in
  let configs =
    [ ("conservative", { base with speculation = false; n_translators = 1 });
      ("one-spec", { base with n_translators = 1 });
      ("nine-trans", Config.trans_heavy base);
      ("no-l15", { base with n_l15_banks = 0 });
      ("one-l15", { base with n_l15_banks = 1 });
      ("no-opt", { base with optimize = false });
      ("no-chain", { base with chaining = false });
      ("no-scoreboard", { base with scoreboard = false });
      ("fifo-queues", { base with priority_queues = false });
      ("no-retpred", { base with return_predictor = false });
      ("superblocks", { base with superblocks = true });
      ("morphing",
       { base with
         morph = Config.Morph { threshold = 5; dwell = 20000 } }) ]
  in
  List.iter
    (fun (name, cfg) ->
      match Config.validate cfg with
      | Error msg -> Alcotest.failf "%s: invalid config: %s" name msg
      | Ok () ->
        let rv = check_same ~cfg looped_sum in
        if rv.cycles <= 0 then Alcotest.failf "%s: no cycles" name)
    configs

let vm_random seed () =
  let rng = Rng.create ~seed in
  let items = Randprog.generate rng Randprog.default_params in
  ignore (check_same items)

let vm_random_morph seed () =
  let rng = Rng.create ~seed in
  let items = Randprog.generate rng Randprog.default_params in
  let cfg =
    { Config.default with morph = Config.Morph { threshold = 0; dwell = 5000 } }
  in
  ignore (check_same ~cfg items)

let vm_chaining_counts () =
  let rv = check_same looped_sum in
  let chained = Stats.get rv.stats "exec.chained_transfers" in
  if chained < 1000 then
    Alcotest.failf "expected chained transfers in a hot loop, got %d" chained

let vm_speculation_runs_ahead () =
  let rng = Rng.create ~seed:77 in
  let items = Randprog.generate rng Randprog.default_params in
  let rv = ignore (check_same items); Vm.run ~fuel Config.default (Program.of_asm items) in
  let translations = Stats.get rv.stats "translations" in
  let demand = Stats.get rv.stats "spec.demand_requests" in
  if translations <= 0 then Alcotest.fail "no translations";
  if demand > translations then
    Alcotest.failf "demand %d should not exceed translations %d" demand
      translations

let vm_slowdown_sane () =
  let prog = Program.of_asm looped_sum in
  let piii = Piii.run prog in
  let rv = Vm.run ~fuel Config.default (Program.of_asm looped_sum) in
  let s = Vm.slowdown rv ~piii_cycles:piii.cycles in
  if s < 2.0 || s > 400.0 then
    Alcotest.failf "slowdown %.1f out of plausible range (piii=%d vm=%d)" s
      piii.cycles rv.cycles

let vm_out_of_fuel () =
  let items =
    [ label "start"; label "spin"; jmp "spin" ]
  in
  let rv = Vm.run ~fuel:10_000 Config.default (Program.of_asm items) in
  match rv.outcome with
  | Exec.Out_of_fuel -> ()
  | Exec.Exited _ | Exec.Fault _ -> Alcotest.fail "expected out-of-fuel"

let vm_cycle_limit () =
  let rv = Vm.run ~fuel ~max_cycles:1_000 Config.default (Program.of_asm looped_sum) in
  match rv.outcome with
  | Exec.Fault m ->
    Alcotest.(check string) "outcome" "simulation cycle limit exceeded" m
  | Exec.Exited _ | Exec.Out_of_fuel -> Alcotest.fail "expected the cycle limit"

(* The engine gates a word on all three of its source fields, and only
   a divide uses the third (its divisor). A divide that reads a
   just-loaded divisor must wait for it exactly as an add that reads it
   does: suspend while the load's miss is outstanding, and stall out an
   L1 hit's latency. The operand is a memory operand so that the
   consumer, not a copy into a guest register, is the load's first
   reader; the hit starts its own block so that the scheduler cannot
   hoist its load away from the consumer. *)
let divisor_program consume =
  [ label "start";
    mov (r esi) (isym "data");
    mov (r eax) (i 1000);
    mov (r edx) (i 0);
    consume (m ~base:esi ~disp:0 ());
    jmp "hit";
    label "hit";
    consume (m ~base:esi ~disp:4 ());
    mov (r ebx) (i 0);
    mov (r eax) (i Syscall.sys_exit);
    int_ Syscall.vector;
    Asm.Align 4096;
    label "data";
    Asm.Word (Asm.Const 3);
    Asm.Word (Asm.Const 5) ]

let vm_divisor_gates () =
  let waits consume =
    let rv = check_same (divisor_program consume) in
    ( Stats.get rv.stats "exec.scoreboard_suspends",
      Stats.get rv.stats "exec.stall_cycles" )
  in
  let ((suspends, stalls) as add_waits) = waits (add (r eax)) in
  if suspends < 1 || stalls < 1 then
    Alcotest.failf "the add should suspend and stall (%d, %d)" suspends stalls;
  Alcotest.(check (pair int int))
    "a divide waits for its divisor as an add does" add_waits
    (waits div)

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [ quick "basic program" vm_basic;
    quick "all configurations agree" vm_configs;
    quick "chaining engages on hot loops" vm_chaining_counts;
    quick "speculation stays ahead of demand" vm_speculation_runs_ahead;
    quick "slowdown vs PIII is sane" vm_slowdown_sane;
    quick "infinite loop hits fuel" vm_out_of_fuel;
    quick "small max_cycles ends the run" vm_cycle_limit;
    quick "a divide waits for its divisor" vm_divisor_gates ]
  @ List.init 6 (fun i ->
        quick (Printf.sprintf "random program %d" i) (vm_random (4000 + i)))
  @ List.init 3 (fun i ->
        quick
          (Printf.sprintf "random program with morphing %d" i)
          (vm_random_morph (5000 + i)))
