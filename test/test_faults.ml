(* Fault injection and recovery: deterministic fault plans, service-level
   failure semantics, retry/backoff bookkeeping, watchdog stall detection,
   and the central robustness property — recoverable faults change timing,
   never guest-visible semantics. *)

open Vat_desim
open Vat_guest
open Vat_tiled
open Vat_core
open Vat_workloads

let fuel = 2_000_000

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_plan_deterministic () =
  let menu = Vm.fault_menu Config.default in
  let p1 = Fault.random ~seed:42 ~horizon:100_000 ~menu ~count:6 in
  let p2 = Fault.random ~seed:42 ~horizon:100_000 ~menu ~count:6 in
  Alcotest.(check (list string))
    "same seed, same plan"
    (List.map Fault.event_to_string (Fault.events p1))
    (List.map Fault.event_to_string (Fault.events p2));
  let p3 = Fault.random ~seed:43 ~horizon:100_000 ~menu ~count:6 in
  Alcotest.(check bool) "different seed, different plan" false
    (List.map Fault.event_to_string (Fault.events p1)
    = List.map Fault.event_to_string (Fault.events p3))

let test_plan_prefix () =
  (* Growing the count extends the schedule without disturbing the
     existing events — what makes cumulative degradation curves fair. *)
  let menu = Vm.fault_menu Config.default in
  let p4 = Fault.random ~seed:7 ~horizon:50_000 ~menu ~count:4 in
  let p8 = Fault.random ~seed:7 ~horizon:50_000 ~menu ~count:8 in
  let strs p = List.map Fault.event_to_string (Fault.events p) in
  let sorted l = List.sort compare l in
  List.iter
    (fun e ->
      Alcotest.(check bool) ("prefix event survives: " ^ e) true
        (List.mem e (strs p8)))
    (strs p4);
  Alcotest.(check int) "counts" 8 (List.length (sorted (strs p8)))

let test_plan_ordering () =
  let events =
    [ { Fault.at = 500; site = Fault.site "manager"; kind = Fault.Fail_stop };
      { Fault.at = 100; site = Fault.site ~index:1 "l2d"; kind = Fault.Fail_stop } ]
  in
  match Fault.events (Fault.make ~seed:0 events) with
  | [ a; b ] ->
    Alcotest.(check int) "sorted by cycle" 100 a.Fault.at;
    Alcotest.(check int) "second" 500 b.Fault.at
  | _ -> Alcotest.fail "expected two events"

(* ------------------------------------------------------------------ *)
(* Service-level fault semantics                                       *)
(* ------------------------------------------------------------------ *)

let mk_service ?on_reject q completions =
  Service.create ?on_reject q ~track:"s" ~serve:(fun _ -> 10)
    ~complete:(fun id -> completions := id :: !completions)

let test_service_fail_stop () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc = mk_service q completions in
  Service.submit svc ~delay:0 1;
  Service.submit svc ~delay:0 2;
  Service.submit svc ~delay:0 3;
  (* Kill the tile while request 1 is in service: 1 is abandoned, 2 and 3
     are dropped from the queue, and a later arrival is rejected. *)
  Event_queue.after q ~delay:5 (fun () ->
      let orphans = Service.fail svc in
      Alcotest.(check (list int)) "queued requests returned" [ 2; 3 ] orphans);
  Service.submit svc ~delay:20 4;
  Event_queue.run q;
  Alcotest.(check (list int)) "no request ever completed" [] !completions;
  Alcotest.(check bool) "failed" true (Service.failed svc);
  (* 1 abandoned mid-service + 2 queued + 1 rejected late arrival. *)
  Alcotest.(check int) "dropped" 4 (Service.dropped svc);
  Alcotest.(check int) "served" 0 (Service.served svc)

let test_service_reject_handler () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let rerouted = ref [] in
  let svc =
    mk_service ~on_reject:(fun id -> rerouted := id :: !rerouted) q completions
  in
  ignore (Service.fail svc);
  Service.submit svc ~delay:0 7;
  Service.submit svc ~delay:1 8;
  Event_queue.run q;
  Alcotest.(check (list int)) "rerouted in arrival order" [ 7; 8 ]
    (List.rev !rerouted)

let test_service_drop_next () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc = mk_service q completions in
  Service.inject svc (Fault.Drop_requests 2);
  Service.submit svc ~delay:0 1;
  Service.submit svc ~delay:0 2;
  Service.submit svc ~delay:0 3;
  Event_queue.run q;
  Alcotest.(check (list int)) "only the third survives" [ 3 ] !completions;
  Alcotest.(check int) "two transient drops" 2 (Service.dropped svc);
  Alcotest.(check bool) "not failed" false (Service.failed svc)

let test_service_slow () =
  let q = Event_queue.create () in
  let done_at = ref [] in
  let svc =
    Service.create q ~track:"s" ~serve:(fun () -> 10) ~complete:(fun () ->
        done_at := Event_queue.now q :: !done_at)
  in
  Service.inject svc (Fault.Slow { factor = 4; cycles = 15 });
  Service.submit svc ~delay:0 ();  (* starts at 0, occupancy 40 *)
  Service.submit svc ~delay:100 (); (* window expired: occupancy 10 *)
  Event_queue.run q;
  Alcotest.(check (list int)) "slow then nominal" [ 40; 110 ]
    (List.rev !done_at)

(* ------------------------------------------------------------------ *)
(* Grid degradation                                                    *)
(* ------------------------------------------------------------------ *)

let test_grid_detour () =
  let g = Grid.create () in
  let c x y : Grid.coord = { x; y } in
  let base = Grid.message_latency g ~src:(c 0 0) ~dst:(c 3 0) in
  Grid.fail_tile g (c 2 0);
  Alcotest.(check int) "detour costs two hops" (base + 2)
    (Grid.message_latency g ~src:(c 0 0) ~dst:(c 3 0));
  (* A route that does not cross the failed tile is unaffected. *)
  Alcotest.(check int) "off-route unaffected"
    (Grid.message_latency g ~src:(c 0 1) ~dst:(c 3 1))
    (4 + Grid.hops (c 0 1) (c 3 1) - 1);
  (* The corner tile of an XY route counts. *)
  let base_corner = 3 + Grid.hops (c 0 1) (c 2 0) in
  Grid.fail_tile g (c 2 1);
  Alcotest.(check int) "corner tile detours" (base_corner + 2)
    (Grid.message_latency g ~src:(c 0 1) ~dst:(c 2 0));
  Alcotest.(check int) "failed tiles" 2 (Grid.failed_tiles g)

(* ------------------------------------------------------------------ *)
(* VM-level recovery                                                   *)
(* ------------------------------------------------------------------ *)

open Asm.Dsl

(* A program with enough blocks and data traffic to exercise fills,
   translations, and the data-memory pipeline. *)
let workload_program =
  [ label "start";
    mov (r esi) (isym "data");
    mov (r eax) (i 0);
    mov (r ecx) (i 3000);
    label "loop";
    add (r eax) (r ecx);
    mov (m ~base:esi ~disp:0 ()) (r eax);
    add (r eax) (m ~base:esi ~disp:0 ());
    mov (r edx) (r ecx);
    and_ (r edx) (i 0xFF);
    mov (m ~base:esi ~disp:4 ()) (r edx);
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

let interp_digest items =
  let interp = Interp.create (Program.of_asm items) in
  match Interp.run ~fuel interp with
  | Interp.Exited n -> (n, Interp.digest interp)
  | Interp.Fault m -> Alcotest.failf "interpreter faulted: %s" m
  | Interp.Out_of_fuel -> Alcotest.fail "interpreter out of fuel"

let check_faulty_run ?(cfg = Config.default) items plan =
  let code, digest = interp_digest items in
  let rv = Vm.run ~fuel ~faults:plan cfg (Program.of_asm items) in
  (match rv.outcome with
   | Exec.Exited n when n = code -> ()
   | Exec.Exited n -> Alcotest.failf "wrong exit: %d, want %d" n code
   | Exec.Fault m -> Alcotest.failf "faulted: %s" m
   | Exec.Out_of_fuel -> Alcotest.fail "out of fuel");
  Alcotest.(check bool) "guest state uncorrupted" true (digest = rv.digest);
  rv

(* Tight deadlines so retries happen inside a small test run. *)
let ft_cfg =
  { Config.default with
    fault_tolerance = true;
    fill_deadline_cycles = 800;
    mem_deadline_cycles = 600;
    watchdog_stall_cycles = 200_000 }

let test_retry_backoff () =
  (* Drop a burst of manager requests: fills must time out, retry, and the
     run must still finish with correct state. *)
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 10; site = Fault.site "manager";
          kind = Fault.Drop_requests 3 } ]
  in
  let rv = check_faulty_run ~cfg:ft_cfg workload_program plan in
  let get = Metrics.get rv in
  Alcotest.(check bool) "requests were dropped" true
    (get "fault.dropped_requests" >= 1);
  Alcotest.(check bool) "deadlines expired" true (get "fault.fill_timeouts" >= 1);
  Alcotest.(check bool) "fills were retried" true (get "fault.fill_retries" >= 1);
  Alcotest.(check bool) "retries bounded by timeouts" true
    (get "fault.fill_retries" <= get "fault.fill_timeouts")

let test_degraded_demand_translate () =
  (* A burst of drops longer than a fill and its [Config.max_retries]
     resends: the last expired deadline goes to the manager's own demand
     translation. *)
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 10; site = Fault.site "manager";
          kind = Fault.Drop_requests 8 } ]
  in
  let rv = check_faulty_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "demand translations" true
    (Metrics.get rv "fault.demand_translates" >= 1)

let test_translator_eviction () =
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 100; site = Fault.site ~index:0 "translator";
          kind = Fault.Fail_stop };
        { Fault.at = 200; site = Fault.site ~index:1 "translator";
          kind = Fault.Fail_stop } ]
  in
  let rv = check_faulty_run workload_program plan in
  Alcotest.(check int) "both evicted" 2
    (Metrics.get rv "fault.translator_evictions");
  Alcotest.(check int) "both tiles marked failed" 2 (Metrics.failed_tiles rv)

let test_l2d_bank_failure_rebanks () =
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 1_000; site = Fault.site ~index:1 "l2d";
          kind = Fault.Fail_stop } ]
  in
  let rv = check_faulty_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "re-banked" true (Metrics.get rv "fault.rebanks" >= 1)

let test_all_banks_dead_direct_dram () =
  let plan =
    Fault.make ~seed:1
      (List.init 4 (fun i ->
           { Fault.at = 1_000 + (i * 100); site = Fault.site ~index:i "l2d";
             kind = Fault.Fail_stop }))
  in
  let rv = check_faulty_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "MMU fell back to uncached DRAM" true
    (Metrics.get rv "fault.uncached_dram_accesses" >= 1)

let test_l15_bank_failure () =
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 50; site = Fault.site ~index:0 "l15";
          kind = Fault.Fail_stop };
        { Fault.at = 60; site = Fault.site ~index:1 "l15";
          kind = Fault.Fail_stop } ]
  in
  let rv = check_faulty_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "degraded events recorded" true
    (Metrics.degraded_events rv >= 0);
  Alcotest.(check int) "both L1.5 tiles failed" 2 (Metrics.failed_tiles rv)

let test_unrecoverable_manager () =
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 5_000; site = Fault.site "manager";
          kind = Fault.Fail_stop } ]
  in
  let rv = Vm.run ~fuel ~faults:plan Config.default (Program.of_asm workload_program) in
  (match rv.outcome with
   | Exec.Fault m ->
     Alcotest.(check bool) ("diagnostic names the manager: " ^ m) true
       (String.length m >= 19 && String.sub m 0 19 = "unrecoverable fault")
   | Exec.Exited _ | Exec.Out_of_fuel ->
     Alcotest.fail "expected a clean unrecoverable-fault outcome");
  Alcotest.(check int) "counted" 1 (Metrics.get rv "fault.unrecoverable")

let test_watchdog_stall () =
  (* Deadline far beyond the watchdog: a lost fill hangs the engine and
     the watchdog must abort with diagnostics rather than spin forever. *)
  let cfg =
    { Config.default with
      fault_tolerance = true;
      fill_deadline_cycles = 50_000_000;
      mem_deadline_cycles = 50_000_000;
      watchdog_stall_cycles = 30_000 }
  in
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 10; site = Fault.site "manager";
          kind = Fault.Drop_requests 50 } ]
  in
  let rv = Vm.run ~fuel ~faults:plan cfg (Program.of_asm workload_program) in
  (match rv.outcome with
   | Exec.Fault m ->
     Alcotest.(check bool) ("watchdog diagnostic: " ^ m) true
       (String.length m >= 8 && String.sub m 0 8 = "watchdog")
   | Exec.Exited _ | Exec.Out_of_fuel ->
     Alcotest.fail "expected a watchdog abort");
  Alcotest.(check int) "watchdog abort counted" 1 (Metrics.watchdog_aborts rv)

(* ------------------------------------------------------------------ *)
(* Every (site, kind) pair: what one fault does, pinned                *)
(* ------------------------------------------------------------------ *)

(* A short loop that walks a fresh data line each iteration and ends in
   an exit syscall, so every role has work in flight when the fault lands
   at cycle 2000. *)
let short_loop =
  [ label "start";
    mov (r esi) (isym "data");
    mov (r eax) (i 0);
    mov (r ecx) (i 200);
    label "loop";
    add (r eax) (m ~base:esi ~disp:0 ());
    add (r eax) (r ecx);
    mov (m ~base:esi ~disp:0 ()) (r eax);
    mov (r edx) (r ecx);
    and_ (r edx) (i 0xFF);
    mov (m ~base:esi ~disp:4 ()) (r edx);
    add (r esi) (i 32);
    dec (r ecx);
    jne "loop";
    mov (r ebx) (r eax);
    and_ (r ebx) (i 0x7F);
    mov (r eax) (i Syscall.sys_exit);
    int_ Syscall.vector;
    Asm.Align 4096;
    label "data";
    Asm.Space (200 * 32) ]

let site_roles =
  [ ("translator", 1); ("l2d", 1); ("l15", 1); ("manager", 0); ("mmu", 0);
    ("syscall", 0); ("exec", 0) ]

let site_kinds =
  [ Fault.Fail_stop; Fault.Drop_requests 4;
    Fault.Slow { factor = 4; cycles = 20_000 }; Fault.Corrupt_payload 3;
    Fault.Corrupt_storage; Fault.Duplicate_delivery 2 ]

let site_kind_signature ?checkpoint_every role index kind =
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 2_000; site = Fault.site ~index role; kind } ]
  in
  let rv =
    Vm.run ~fuel ~faults:plan ?checkpoint_every Config.default
      (Program.of_asm short_loop)
  in
  let outcome =
    match rv.outcome with
    | Exec.Exited n -> Printf.sprintf "exit %d" n
    | Exec.Fault m -> "fault " ^ m
    | Exec.Out_of_fuel -> "out of fuel"
  in
  let counters =
    List.map
      (fun k -> string_of_int (Metrics.get rv k))
      [ "fault.injected"; "corrupt.injected"; "corrupt.absorbed";
        "fault.unrecoverable"; "fault.failed_tiles"; "recovery.rollbacks" ]
  in
  Printf.sprintf "%s/%s%s: %s; cycles %d; %s" role
    (Fault.kind_to_string kind)
    (if checkpoint_every = None then "" else " ckpt")
    outcome rv.cycles
    (String.concat " " counters)

(* Each line: outcome, cycles, then fault.injected, corrupt.injected,
   corrupt.absorbed, fault.unrecoverable, fault.failed_tiles and
   recovery.rollbacks. *)
let site_kind_expected =
  [ "translator/fail-stop: exit 4; cycles 42978; 1 0 0 0 1 0";
    "translator/drop-4: exit 4; cycles 42978; 1 0 0 0 0 0";
    "translator/slow-x4-for-20000: exit 4; cycles 42978; 1 0 0 0 0 0";
    "translator/corrupt-payload-3: exit 4; cycles 42978; 1 1 1 0 0 0";
    "translator/corrupt-storage: exit 4; cycles 42978; 1 1 1 0 0 0";
    "translator/duplicate-2: exit 4; cycles 42978; 1 1 1 0 0 0";
    "l2d/fail-stop: exit 4; cycles 44565; 1 0 0 0 1 0";
    "l2d/drop-4: exit 4; cycles 102892; 1 0 0 0 0 0";
    "l2d/slow-x4-for-20000: exit 4; cycles 48537; 1 0 0 0 0 0";
    "l2d/corrupt-payload-3: exit 4; cycles 70978; 1 1 0 0 0 0";
    "l2d/corrupt-storage: exit 4; cycles 42978; 1 1 1 0 0 0";
    "l2d/duplicate-2: exit 4; cycles 42978; 1 1 0 0 0 0";
    "l15/fail-stop: exit 4; cycles 43176; 1 0 0 0 1 0";
    "l15/drop-4: exit 4; cycles 133088; 1 0 0 0 0 0";
    "l15/slow-x4-for-20000: exit 4; cycles 42978; 1 0 0 0 0 0";
    "l15/corrupt-payload-3: exit 4; cycles 84978; 1 1 0 0 0 0";
    "l15/corrupt-storage: exit 4; cycles 42978; 1 1 1 0 0 0";
    "l15/duplicate-2: exit 4; cycles 42978; 1 1 0 0 0 0";
    "manager/fail-stop: fault unrecoverable fault: manager tile failed; cycles 2000; 1 0 0 1 0 0";
    "manager/drop-4: exit 4; cycles 48978; 1 0 0 0 0 0";
    "manager/slow-x4-for-20000: exit 4; cycles 43155; 1 0 0 0 0 0";
    "manager/corrupt-payload-3: exit 4; cycles 48978; 1 1 0 0 0 0";
    "manager/corrupt-storage: exit 4; cycles 42978; 1 1 0 0 0 0";
    "manager/duplicate-2: exit 4; cycles 42978; 1 1 0 0 0 0";
    "mmu/fail-stop: fault unrecoverable fault: MMU tile failed; cycles 2000; 1 0 0 1 0 0";
    "mmu/drop-4: exit 4; cycles 102892; 1 0 0 0 0 0";
    "mmu/slow-x4-for-20000: exit 4; cycles 48360; 1 0 0 0 0 0";
    "mmu/corrupt-payload-3: exit 4; cycles 70978; 1 1 0 0 0 0";
    "mmu/corrupt-storage: exit 4; cycles 42978; 1 1 1 0 0 0";
    "mmu/duplicate-2: exit 4; cycles 42978; 1 1 0 0 0 0";
    "syscall/fail-stop: fault unrecoverable fault: syscall tile failed; cycles 2000; 1 0 0 1 0 0";
    "syscall/drop-4: fault unrecoverable fault: syscall tile failed; cycles 2000; 1 0 0 1 0 0";
    "syscall/slow-x4-for-20000: exit 4; cycles 42978; 1 0 0 0 0 0";
    "syscall/corrupt-payload-3: exit 4; cycles 42978; 1 1 1 0 0 0";
    "syscall/corrupt-storage: exit 4; cycles 42978; 1 1 1 0 0 0";
    "syscall/duplicate-2: exit 4; cycles 42978; 1 1 1 0 0 0";
    "exec/fail-stop: fault unrecoverable fault: execution tile failed; cycles 2000; 1 0 0 1 0 0";
    "exec/drop-4: fault unrecoverable fault: execution tile failed; cycles 2000; 1 0 0 1 0 0";
    "exec/slow-x4-for-20000: fault unrecoverable fault: execution tile failed; cycles 2000; 1 0 0 1 0 0";
    "exec/corrupt-payload-3: exit 4; cycles 42978; 1 1 1 0 0 0";
    "exec/corrupt-storage: exit 4; cycles 42978; 1 1 0 0 0 0";
    "exec/duplicate-2: exit 4; cycles 42978; 1 1 1 0 0 0";
    "manager/fail-stop ckpt: exit 4; cycles 42982; 1 0 0 0 1 1";
    "mmu/fail-stop ckpt: exit 4; cycles 43178; 1 0 0 0 1 1";
    "syscall/fail-stop ckpt: exit 4; cycles 42978; 1 0 0 0 1 1";
    "exec/fail-stop ckpt: exit 4; cycles 42978; 1 0 0 0 1 1";
    "syscall/drop-4 ckpt: exit 4; cycles 42978; 1 0 0 0 1 1";
    "exec/drop-4 ckpt: exit 4; cycles 42978; 1 0 0 0 1 1" ]

let test_site_kind_table () =
  let plain =
    List.concat_map
      (fun (role, index) ->
        List.map (site_kind_signature role index) site_kinds)
      site_roles
  in
  let terminal =
    List.map
      (fun (role, kind) ->
        site_kind_signature ~checkpoint_every:1_000 role 0 kind)
      [ ("manager", Fault.Fail_stop); ("mmu", Fault.Fail_stop);
        ("syscall", Fault.Fail_stop); ("exec", Fault.Fail_stop);
        ("syscall", Fault.Drop_requests 4); ("exec", Fault.Drop_requests 4) ]
  in
  Alcotest.(check (list string)) "one fault per (site, kind)"
    site_kind_expected (plain @ terminal)

(* A site no component owns is a malformed plan, whatever the kind. *)
let test_unknown_site_rejected () =
  match site_kind_signature "bogus" 0 Fault.Corrupt_storage with
  | _ -> Alcotest.fail "a fault at an unknown site was accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Acceptance: gzip survives 2 translator deaths + 1 L2D bank death     *)
(* ------------------------------------------------------------------ *)

let gzip_plan =
  Fault.make ~seed:2026
    [ { Fault.at = 40_000; site = Fault.site ~index:0 "translator";
        kind = Fault.Fail_stop };
      { Fault.at = 60_000; site = Fault.site ~index:1 "l2d";
        kind = Fault.Fail_stop };
      { Fault.at = 90_000; site = Fault.site ~index:2 "translator";
        kind = Fault.Fail_stop } ]

let stats_fingerprint (r : Vm.result) =
  String.concat ";"
    (List.map
       (fun name -> Printf.sprintf "%s=%d" name (Stats.get r.stats name))
       (Stats.names r.stats))

let test_gzip_survives_faults () =
  let b = Suite.find "gzip" in
  let interp = Interp.create (Suite.load b) in
  let oi = Interp.run ~fuel:5_000_000 interp in
  (match oi with
   | Interp.Exited _ -> ()
   | _ -> Alcotest.fail "gzip reference run did not exit");
  let run () = Vm.run ~fuel:5_000_000 ~faults:gzip_plan Config.default (Suite.load b) in
  let rv = run () in
  (match (oi, rv.outcome) with
   | Interp.Exited a, Exec.Exited b when a = b -> ()
   | _ -> Alcotest.fail "gzip outcome differs under faults");
  Alcotest.(check bool) "guest-visible state identical to fault-free run"
    true
    (Interp.digest interp = rv.digest);
  Alcotest.(check string) "output identical" (Interp.output interp) rv.output;
  (* The faults are visible in the summary... *)
  Alcotest.(check int) "faults injected" 3 (Metrics.faults_injected rv);
  Alcotest.(check bool) "summary reports faults" true
    (List.mem_assoc "faults_injected" (Metrics.summary rv));
  Alcotest.(check int) "tiles lost" 3 (Metrics.failed_tiles rv);
  (* ...and the same plan reproduces byte-identical metrics. *)
  let rv2 = run () in
  Alcotest.(check string) "deterministic replay"
    (stats_fingerprint rv) (stats_fingerprint rv2);
  Alcotest.(check int) "same cycle count" rv.cycles rv2.cycles

(* ------------------------------------------------------------------ *)
(* Differential property: recoverable faults never change semantics     *)
(* ------------------------------------------------------------------ *)

let prop_fault_semantic_transparency =
  QCheck.Test.make
    ~name:
      "random program + random recoverable fault schedule = fault-free \
       interpreter state"
    ~count:15
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 6))
    (fun (seed, n_faults) ->
      let rng = Rng.create ~seed in
      let items = Randprog.generate rng Randprog.default_params in
      let prog_i = Program.of_asm items in
      let interp = Interp.create prog_i in
      let oi = Interp.run ~fuel interp in
      let menu = Vm.fault_menu ~recoverable_only:true ft_cfg in
      let plan =
        Fault.random ~seed:(seed + 1) ~horizon:150_000 ~menu ~count:n_faults
      in
      let rv =
        Vm.run ~fuel:(fuel * 2) ~faults:plan ft_cfg (Program.of_asm items)
      in
      match (oi, rv.outcome) with
      | Interp.Exited a, Exec.Exited b when a = b ->
        Interp.digest interp = rv.digest
        && Interp.output interp = rv.output
      | Interp.Fault _, Exec.Fault _ -> true
      | Interp.Out_of_fuel, _ | _, Exec.Out_of_fuel -> true
      | _ ->
        QCheck.Test.fail_reportf "outcomes diverged under plan %s"
          (Format.asprintf "%a" Fault.pp plan))

let suite =
  [ Alcotest.test_case "plan: deterministic from seed" `Quick
      test_plan_deterministic;
    Alcotest.test_case "plan: count extension is a superset" `Quick
      test_plan_prefix;
    Alcotest.test_case "plan: events sorted by cycle" `Quick test_plan_ordering;
    Alcotest.test_case "service: fail-stop drops and rejects" `Quick
      test_service_fail_stop;
    Alcotest.test_case "service: reject handler reroutes" `Quick
      test_service_reject_handler;
    Alcotest.test_case "service: transient drop" `Quick test_service_drop_next;
    Alcotest.test_case "service: slow-tile factor" `Quick test_service_slow;
    Alcotest.test_case "grid: failed tiles cost detours" `Quick
      test_grid_detour;
    Alcotest.test_case "vm: retry/backoff bookkeeping" `Quick
      test_retry_backoff;
    Alcotest.test_case "vm: degraded demand-translate path" `Quick
      test_degraded_demand_translate;
    Alcotest.test_case "vm: translator fail-stop evicts" `Quick
      test_translator_eviction;
    Alcotest.test_case "vm: L2D bank failure re-banks" `Quick
      test_l2d_bank_failure_rebanks;
    Alcotest.test_case "vm: all banks dead -> uncached DRAM" `Quick
      test_all_banks_dead_direct_dram;
    Alcotest.test_case "vm: L1.5 bank failure reroutes" `Quick
      test_l15_bank_failure;
    Alcotest.test_case "vm: manager fail-stop is clean+unrecoverable" `Quick
      test_unrecoverable_manager;
    Alcotest.test_case "vm: watchdog detects stalls" `Quick test_watchdog_stall;
    Alcotest.test_case "vm: one fault per (site, kind), pinned" `Quick
      test_site_kind_table;
    Alcotest.test_case "vm: a fault at an unknown site is rejected" `Quick
      test_unknown_site_rejected;
    Alcotest.test_case "gzip survives 2 translators + 1 bank dying" `Slow
      test_gzip_survives_faults;
    QCheck_alcotest.to_alcotest prop_fault_semantic_transparency ]
