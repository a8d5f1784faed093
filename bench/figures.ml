(* Regenerates every table and figure of the paper's evaluation section
   (Wentzlaff & Agarwal, CGO 2006, Section 4). Each figure prints the same
   rows/series the paper reports; slowdown is always
   cycles(translator on the tiled host) / cycles(Pentium III model). *)

open Vat_desim
open Vat_core
open Vat_workloads

let fuel = 50_000_000

let benchmarks = Suite.all

(* The morphing pair used throughout (paper Section 4.4). *)
let morph_cfg ?(threshold = 15) () =
  { (Config.mem_heavy Config.default) with
    morph = Config.Morph { threshold; dwell = 25000 } }

(* Per-benchmark translation memos: every cell of a config sweep over one
   benchmark retranslates the same guest blocks, so cells share a keyed
   memo (see Translate.Memo — sound across configs and domains, and
   invisible in modelled timing). Created on the main domain only; worker
   tasks capture their handle before the pool launches. *)
let memos : (string, Translate.Memo.t) Hashtbl.t = Hashtbl.create 16

let memo_for (b : Suite.benchmark) =
  match Hashtbl.find_opt memos b.name with
  | Some m -> m
  | None ->
    let m = Translate.Memo.create () in
    Hashtbl.add memos b.name m;
    m

(* PIII reference cycles, computed once per benchmark. *)
let piii_cache : (string, int) Hashtbl.t = Hashtbl.create 16

let piii_cycles (b : Suite.benchmark) =
  match Hashtbl.find_opt piii_cache b.name with
  | Some c -> c
  | None ->
    let r = Vat_refmodel.Piii.run (Suite.load b) in
    (match r.outcome with
     | Vat_guest.Interp.Exited _ -> ()
     | _ -> failwith (b.name ^ ": reference run did not exit"));
    Hashtbl.replace piii_cache b.name r.cycles;
    r.cycles

(* VM results, memoized per (benchmark, config-key) so figures sharing
   configurations (5/6/7, 9/10) reuse runs. Normally prefilled in
   parallel by [run_all]; the compute-on-miss path below is the
   sequential fallback and produces identical results. *)
let run_cache : (string * string, Vm.result) Hashtbl.t = Hashtbl.create 64

let check_outcome key (b : Suite.benchmark) (r : Vm.result) =
  match r.outcome with
  | Exec.Exited _ -> ()
  | Exec.Fault m -> failwith (Printf.sprintf "%s/%s faulted: %s" b.name key m)
  | Exec.Out_of_fuel -> failwith (b.name ^ "/" ^ key ^ ": out of fuel")

(* Guest instructions retired by runs a figure makes while it renders
   (the cells [cells_for] does not prefill); [run_all] adds them to the
   figure's count. *)
let inline_insns = ref 0

let run_inline ?faults ?trace ?checkpoint_every cfg (b : Suite.benchmark) =
  let r =
    Vm.run ~fuel ?faults ~memo:(memo_for b) ?trace ?checkpoint_every cfg
      (Suite.load b)
  in
  inline_insns := !inline_insns + r.Vm.guest_insns;
  r

let run_vm ?faults key (b : Suite.benchmark) cfg =
  match Hashtbl.find_opt run_cache (b.name, key) with
  | Some r -> r
  | None ->
    let r = run_inline ?faults cfg b in
    check_outcome key b r;
    Hashtbl.replace run_cache (b.name, key) r;
    r

let slowdown b r = Vm.slowdown r ~piii_cycles:(piii_cycles b)

let short_name (b : Suite.benchmark) = b.Suite.name

let header title columns =
  Printf.printf "\n%s\n" title;
  Printf.printf "%-14s" "benchmark";
  List.iter (fun c -> Printf.printf " %12s" c) columns;
  print_newline ();
  Printf.printf "%s\n" (String.make (14 + (13 * List.length columns)) '-')

let row name cells =
  Printf.printf "%-14s" name;
  List.iter (fun c -> Printf.printf " %12s" c) cells;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 4: L1.5 code-cache sizes                                     *)
(* ------------------------------------------------------------------ *)

let fig4_configs =
  [ ("no-L1.5", { Config.default with n_l15_banks = 0 });
    ("64K-1bank", { Config.default with n_l15_banks = 1 });
    ("128K-2bank", { Config.default with n_l15_banks = 2 }) ]

let fig4 () =
  header
    "Figure 4: slowdown vs L1.5 code cache size (no / 64K 1-bank / 128K 2-bank)"
    (List.map fst fig4_configs);
  List.iter
    (fun b ->
      row (short_name b)
        (List.map
           (fun (key, cfg) ->
             Printf.sprintf "%.1f" (slowdown b (run_vm ("fig4-" ^ key) b cfg)))
           fig4_configs))
    benchmarks

(* ------------------------------------------------------------------ *)
(* Figures 5/6/7: translator counts (shared run matrix)                *)
(* ------------------------------------------------------------------ *)

let fig5_configs =
  [ ("cons-1", { Config.default with speculation = false; n_translators = 1 });
    ("spec-1", { Config.default with n_translators = 1 });
    ("spec-2", { Config.default with n_translators = 2 });
    ("spec-4", { Config.default with n_translators = 4 });
    ("spec-6", { Config.default with n_translators = 6 });
    ("spec-9", Config.trans_heavy Config.default) ]

let fig5_run b (key, cfg) = run_vm ("fig5-" ^ key) b cfg

let fig5 () =
  header
    "Figure 5: slowdown vs number of translation tiles (1 conservative; 1/2/4/6/9 speculative)"
    (List.map fst fig5_configs);
  List.iter
    (fun b ->
      row (short_name b)
        (List.map
           (fun c -> Printf.sprintf "%.1f" (slowdown b (fig5_run b c)))
           fig5_configs))
    benchmarks

let fig6 () =
  header "Figure 6: L2 code-cache accesses per cycle (same configurations)"
    (List.map fst fig5_configs);
  List.iter
    (fun b ->
      row (short_name b)
        (List.map
           (fun c ->
             Printf.sprintf "%.2e" (Metrics.l2_code_accesses_per_cycle (fig5_run b c)))
           fig5_configs))
    benchmarks

let fig7 () =
  header "Figure 7: L2 code-cache misses per L2 access (same configurations)"
    (List.map fst fig5_configs);
  List.iter
    (fun b ->
      row (short_name b)
        (List.map
           (fun c ->
             Printf.sprintf "%.2e" (Metrics.l2_code_miss_rate (fig5_run b c)))
           fig5_configs))
    benchmarks

(* ------------------------------------------------------------------ *)
(* Figure 8: code optimization on/off                                  *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  (* The paper used the dynamically reconfiguring (6-9 translators)
     configuration for these runs. *)
  let on = morph_cfg () in
  let off = { (morph_cfg ()) with optimize = false } in
  header "Figure 8: slowdown without vs with code optimization (morphing config)"
    [ "no-opt"; "opt" ];
  List.iter
    (fun b ->
      row (short_name b)
        [ Printf.sprintf "%.1f" (slowdown b (run_vm "fig8-off" b off));
          Printf.sprintf "%.1f" (slowdown b (run_vm "fig8-on" b on)) ])
    benchmarks

(* ------------------------------------------------------------------ *)
(* Figures 9/10: static vs dynamic reconfiguration                     *)
(* ------------------------------------------------------------------ *)

let fig9_configs =
  [ ("1m9t", Config.trans_heavy Config.default);
    ("4m6t", Config.mem_heavy Config.default);
    ("thr15", morph_cfg ~threshold:15 ());
    ("thr0", morph_cfg ~threshold:0 ());
    ("thr5", morph_cfg ~threshold:5 ()) ]

let fig9_run b (key, cfg) = run_vm ("fig9-" ^ key) b cfg

let fig9 () =
  header
    "Figure 9: slowdown, static (1 mem/9 trans; 4 mem/6 trans) vs morphing (thresholds 15/0/5)"
    (List.map fst fig9_configs);
  List.iter
    (fun b ->
      row (short_name b)
        (List.map
           (fun c -> Printf.sprintf "%.2f" (slowdown b (fig9_run b c)))
           fig9_configs))
    benchmarks

let fig10 () =
  header
    "Figure 10: percent faster than the 1 mem/9 trans static configuration (higher is better)"
    (List.filter (fun c -> c <> "1m9t") (List.map fst fig9_configs)
     |> List.map (fun c -> c ^ "(%)"));
  List.iter
    (fun b ->
      let base = (fig9_run b (List.hd fig9_configs)).Vm.cycles in
      row (short_name b)
        (List.filteri (fun i _ -> i > 0) fig9_configs
         |> List.map (fun c ->
                let cycles = (fig9_run b c).Vm.cycles in
                Printf.sprintf "%+.2f"
                  (100. *. (float_of_int base -. float_of_int cycles)
                   /. float_of_int base))))
    benchmarks

(* ------------------------------------------------------------------ *)
(* Figure 11 (table): architecture intrinsics                          *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  let emu = Analysis.emulator_intrinsics Config.default in
  let ref_ = Analysis.piii_intrinsics in
  Printf.printf "\nFigure 11: architecture intrinsics (emulator vs Pentium III)\n";
  Printf.printf "%-14s %22s %18s\n" "intrinsic" "Raw emulator" "PIII";
  Printf.printf "%s\n" (String.make 56 '-');
  let line name f =
    Printf.printf "%-14s %22s %18s\n" name (f emu) (f ref_)
  in
  line "L1 cache hit" (fun i ->
      Printf.sprintf "lat %d, occ %d" i.Analysis.l1_hit_latency i.l1_hit_occupancy);
  line "L2 cache hit" (fun i ->
      Printf.sprintf "lat %d, occ %d" i.Analysis.l2_hit_latency i.l2_hit_occupancy);
  line "L2 cache miss" (fun i ->
      Printf.sprintf "lat %d, occ %d" i.Analysis.l2_miss_latency i.l2_miss_occupancy);
  line "exec units" (fun i -> string_of_int i.Analysis.exec_units)

(* ------------------------------------------------------------------ *)
(* Section 4.5: performance-loss analysis                              *)
(* ------------------------------------------------------------------ *)

let analysis () =
  let d = Analysis.paper_decomposition Config.default in
  Printf.printf
    "\nSection 4.5 analysis: expected slowdown decomposition (paper: 3.9 x 1.3 x 1.1 = 5.5)\n";
  Printf.printf
    "  memory system %.2fx * realized ILP %.2fx * condition codes %.2fx = %.2fx\n"
    d.memory_factor d.ilp_factor d.flags_factor d.expected_slowdown;
  header
    "Per-benchmark: measured slowdown vs analytic floor (low-end residual ~1.3x in the paper)"
    [ "measured"; "floor"; "residual"; "l2acc/cyc" ];
  List.iter
    (fun b ->
      let r = run_vm "fig5-spec-6" b (List.assoc "spec-6" fig5_configs) in
      let dec =
        Analysis.decompose Config.default
          ~mem_access_rate:(min 0.6 (Metrics.mem_access_rate r))
          ~l1_miss_rate:(Metrics.l1d_miss_rate r)
          ~l2_miss_rate:
            (Stats.ratio r.Vm.stats "l2d.misses" "l2d.accesses")
      in
      let s = slowdown b r in
      row (short_name b)
        [ Printf.sprintf "%.1f" s;
          Printf.sprintf "%.1f" dec.expected_slowdown;
          Printf.sprintf "%.1f" (s /. dec.expected_slowdown);
          Printf.sprintf "%.1e" (Metrics.l2_code_accesses_per_cycle r) ])
    benchmarks;
  Printf.printf
    "(High residuals correlate with the L2 code-cache access rate, as in the paper.)\n"

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices Sections 2.1/2.2 call out             *)
(* ------------------------------------------------------------------ *)

let ablation_configs =
  [ ("full", Config.default);
    ("no-chain", { Config.default with chaining = false });
    ("no-scoreboard", { Config.default with scoreboard = false });
    ("fifo-queues", { Config.default with priority_queues = false });
    ("no-retpred", { Config.default with return_predictor = false });
    ("superblocks", { Config.default with superblocks = true }) ]

let ablations () =
  header
    "Ablations: chaining, load scoreboarding, priority queues, return predictor (slowdowns)"
    (List.map fst ablation_configs);
  List.iter
    (fun b ->
      row (short_name b)
        (List.map
           (fun (key, cfg) ->
             Printf.sprintf "%.1f" (slowdown b (run_vm ("abl-" ^ key) b cfg)))
           ablation_configs))
    benchmarks

(* ------------------------------------------------------------------ *)
(* Fabric sharing (Section 5 future work, implemented)                 *)
(* ------------------------------------------------------------------ *)

let fabric_pairs = [ ("gcc", "gzip"); ("vpr", "parser") ]

let fabric_policies =
  [ ("static", Fabric.Static (3, 3)); ("shared", Fabric.Shared { dwell = 20000 }) ]

let fabric_cache : (string, Fabric.result) Hashtbl.t = Hashtbl.create 8

let fabric_key (na, nb) pname = na ^ "+" ^ nb ^ "/" ^ pname

let fabric_run pair pname =
  let key = fabric_key pair pname in
  match Hashtbl.find_opt fabric_cache key with
  | Some r -> r
  | None ->
    let na, nb = pair in
    let load n = Suite.load (Suite.find n) in
    let r =
      Fabric.run ~policy:(List.assoc pname fabric_policies) (load na, na)
        (load nb, nb)
    in
    Hashtbl.replace fabric_cache key r;
    r

let fabric () =
  Printf.printf
    "\nFabric sharing (paper Section 5): two guests on one fabric, static vs dynamic tile split\n";
  List.iter
    (fun ((na, nb) as pair) ->
      let s = fabric_run pair "static" in
      let d = fabric_run pair "shared" in
      Printf.printf
        "%s + %s: static makespan %d, shared makespan %d (%+.2f%%), %d trades\n"
        na nb s.makespan d.makespan
        (100.
         *. (float_of_int s.makespan -. float_of_int d.makespan)
         /. float_of_int s.makespan)
        d.trades)
    fabric_pairs

(* ------------------------------------------------------------------ *)
(* Fault tolerance: degradation under injected tile failures           *)
(* ------------------------------------------------------------------ *)

let fault_counts = [ 0; 1; 2; 4; 8 ]
let fault_seed = 2026
let fault_horizon = 400_000

(* Plans are drawn from one seed with growing counts; the stream behind
   [Faultspec.plan] is prefix-stable, so each column adds faults to the
   previous one and the curve is a genuine cumulative-damage sweep. *)
let fault_plan cfg n =
  Faultspec.plan ~horizon:fault_horizon cfg ~seed:fault_seed ~count:n

let faults_run b n =
  let cfg = Config.default in
  run_vm ~faults:(fault_plan cfg n) (Printf.sprintf "faults-%d" n) b cfg

let fault_benchmarks () =
  List.map Suite.find [ "gzip"; "mcf"; "parser" ]

let faults () =
  header
    (Printf.sprintf
       "Degradation: slowdown vs injected recoverable faults (seed %d, \
        cumulative plans)"
       fault_seed)
    (List.map (fun n -> Printf.sprintf "%d-fault" n) fault_counts);
  List.iter
    (fun b ->
      row (short_name b)
        (List.map
           (fun n -> Printf.sprintf "%.2f" (slowdown b (faults_run b n)))
           fault_counts))
    (fault_benchmarks ());
  Printf.printf
    "(Guest-visible results are identical in every cell; only timing moves.)\n";
  header "Recovery activity at the 8-fault point"
    [ "tiles-lost"; "timeouts"; "retries"; "dropped"; "degraded" ];
  List.iter
    (fun b ->
      let r = faults_run b 8 in
      row (short_name b)
        [ string_of_int (Metrics.failed_tiles r);
          string_of_int (Metrics.fault_timeouts r);
          string_of_int (Metrics.fault_retries r);
          string_of_int (Metrics.dropped_requests r);
          string_of_int (Metrics.degraded_events r) ])
    (fault_benchmarks ())

(* ------------------------------------------------------------------ *)
(* Checkpoint/rollback-recovery: previously-terminal faults survived   *)
(* ------------------------------------------------------------------ *)

let recovery_counts = [ 0; 2; 4; 8 ]
let recovery_every = 25_000

(* Same seed and prefix-stability as the other fault sweeps, but the menu
   includes the previously-terminal sites: execution, manager and MMU
   fail-stops, and dirty-L2D storage loss. *)
let recovery_plan cfg n =
  Faultspec.plan ~horizon:fault_horizon ~recoverable_only:false cfg
    ~seed:fault_seed ~count:n

let recovery_benchmarks () = List.map Suite.find [ "gzip"; "mcf" ]

(* Separate cache from [run_cache]: these runs are allowed to die (that
   is the point of the bare column), so they bypass [check_outcome]. *)
let recovery_cache : (string * string, Vm.result) Hashtbl.t = Hashtbl.create 16

let recovery_run ?checkpoint_every (b : Suite.benchmark) n =
  let key =
    Printf.sprintf "recov-%d%s" n
      (match checkpoint_every with Some _ -> "-ckpt" | None -> "")
  in
  match Hashtbl.find_opt recovery_cache (b.Suite.name, key) with
  | Some r -> r
  | None ->
    let cfg = Config.default in
    let r = run_inline ~faults:(recovery_plan cfg n) ?checkpoint_every cfg b in
    Hashtbl.replace recovery_cache (b.Suite.name, key) r;
    r

let recovery_outcome_cell (r : Vm.result) =
  match r.Vm.outcome with
  | Exec.Exited _ -> "ok"
  | Exec.Fault _ -> "DEAD"
  | Exec.Out_of_fuel -> "fuel"

let recovery () =
  header
    (Printf.sprintf
       "Recovery: unrecoverable-class fault plans, bare vs checkpointed \
        (seed %d, cumulative plans, checkpoint every %d cycles)"
       fault_seed recovery_every)
    (List.concat_map
       (fun n ->
         [ Printf.sprintf "%d-bare" n; Printf.sprintf "%d-ckpt" n ])
       recovery_counts);
  List.iter
    (fun b ->
      row (short_name b)
        (List.concat_map
           (fun n ->
             [ recovery_outcome_cell (recovery_run b n);
               recovery_outcome_cell
                 (recovery_run ~checkpoint_every:recovery_every b n) ])
           recovery_counts))
    (recovery_benchmarks ());
  (* The rollback transparency claim, checked, not just printed: every
     checkpointed cell must finish with the fault-free run's guest state. *)
  List.iter
    (fun b ->
      let clean = recovery_run b 0 in
      List.iter
        (fun n ->
          let ckpt = recovery_run ~checkpoint_every:recovery_every b n in
          match ckpt.Vm.outcome with
          | Exec.Exited _ when ckpt.Vm.digest = clean.Vm.digest -> ()
          | _ ->
            failwith
              (Printf.sprintf "%s: checkpointed run diverged under %d faults"
                 b.Suite.name n))
        recovery_counts)
    (recovery_benchmarks ());
  Printf.printf
    "(Every checkpointed run survives and its guest digest matches the \
     fault-free run.)\n";
  header "Rollback activity at the 8-fault point (checkpointed)"
    [ "rollbacks"; "replayed"; "masked"; "quarantined"; "cycles"; "overhead" ];
  List.iter
    (fun b ->
      let r0 = recovery_run ~checkpoint_every:recovery_every b 0 in
      let r = recovery_run ~checkpoint_every:recovery_every b 8 in
      row (short_name b)
        [ string_of_int (Metrics.recoveries r);
          string_of_int (Metrics.replayed_cycles r);
          string_of_int (Metrics.get r "recovery.masked_faults");
          string_of_int (Metrics.get r "recovery.quarantines");
          string_of_int r.Vm.cycles;
          Printf.sprintf "%+.1f%%"
            (100.
             *. (float_of_int r.Vm.cycles -. float_of_int r0.Vm.cycles)
             /. float_of_int r0.Vm.cycles) ])
    (recovery_benchmarks ())

(* ------------------------------------------------------------------ *)
(* End-to-end integrity: degradation under injected soft errors        *)
(* ------------------------------------------------------------------ *)

let corruption_counts = [ 0; 2; 4; 8; 16 ]

(* Same seed and prefix-stable stream as the fail-stop sweep, but drawn
   from the corruption classes only (payload flips, storage flips,
   duplicate deliveries). *)
let corruption_plan cfg n =
  Faultspec.plan ~horizon:fault_horizon ~classes:Fault.corruption_classes cfg
    ~seed:fault_seed ~count:n

let corruption_run b n =
  let cfg = Config.default in
  run_vm ~faults:(corruption_plan cfg n) (Printf.sprintf "corrupt-%d" n) b cfg

let corruption () =
  header
    (Printf.sprintf
       "Corruption: slowdown vs injected soft errors (seed %d, cumulative \
        plans, corruption classes only)"
       fault_seed)
    (List.map (fun n -> Printf.sprintf "%d-error" n) corruption_counts);
  List.iter
    (fun b ->
      row (short_name b)
        (List.map
           (fun n -> Printf.sprintf "%.2f" (slowdown b (corruption_run b n)))
           corruption_counts))
    (fault_benchmarks ());
  Printf.printf
    "(Every error is detected and repaired: guest results are identical in \
     every cell and corrupt.silent is zero.)\n";
  header "Integrity activity at the 16-error point"
    [ "injected"; "detected"; "corrected"; "quarantined"; "silent" ];
  List.iter
    (fun b ->
      let r = corruption_run b 16 in
      row (short_name b)
        [ string_of_int (Metrics.corruptions_injected r);
          string_of_int (Metrics.corruptions_detected r);
          string_of_int (Metrics.corruptions_corrected r);
          string_of_int (Metrics.quarantined_tiles r);
          string_of_int (Metrics.silent_corruptions r) ])
    (fault_benchmarks ())

(* ------------------------------------------------------------------ *)
(* Trace demo: Figure 5's gcc congestion story, time-resolved          *)
(* ------------------------------------------------------------------ *)

(* gcc is Figure 5's outlier: it keeps speeding up all the way to nine
   translation tiles while the other benchmarks flatten out early. The
   event trace shows the mechanism directly — with one translation tile
   the translate queue backs up and the fabric idles behind it; with nine
   the queue drains and the manager tile becomes the busy resource. *)

let trace_traced key cfg =
  let b = Suite.find "gcc" in
  let trace = Vat_trace.Trace.create () in
  let r = run_inline ~trace cfg b in
  check_outcome key b r;
  (trace, r)

(* Peak value of a sampled gauge track (e.g. "translate-queue"). *)
let trace_peak_gauge t name =
  match Vat_trace.Trace.find_track t name with
  | None -> 0
  | Some track ->
    let m = ref 0 in
    Vat_trace.Trace.iter t (fun rec_ ->
        if
          rec_.Vat_trace.Trace.track = track
          && rec_.Vat_trace.Trace.kind = Vat_trace.Trace.Queue_depth
        then m := max !m rec_.Vat_trace.Trace.arg);
    !m

let trace_busy t (r : Vm.result) name =
  match Vat_trace.Trace.find_track t name with
  | None -> 0.
  | Some track ->
    Vat_trace.Report.busy_fraction t ~track ~total_cycles:r.Vm.cycles

let trace_fig () =
  let t1, r1 = trace_traced "trace-spec-1" { Config.default with n_translators = 1 } in
  let t9, r9 = trace_traced "trace-spec-9" (Config.trans_heavy Config.default) in
  Printf.printf
    "\nTrace: gcc with 1 vs 9 translation tiles (Figure 5's outlier, \
     time-resolved)\n";
  Printf.printf "%-8s %12s %10s %12s %10s\n" "config" "cycles" "mgr-busy"
    "peak-tqueue" "mgr-hwm";
  Printf.printf "%s\n" (String.make 56 '-');
  List.iter
    (fun (label, t, (r : Vm.result)) ->
      Printf.printf "%-8s %12d %9.1f%% %12d %10d\n" label r.Vm.cycles
        (100. *. trace_busy t r "manager")
        (trace_peak_gauge t "translate-queue")
        (Metrics.mgr_queue_hwm r))
    [ ("spec-1", t1, r1); ("spec-9", t9, r9) ];
  Printf.printf
    "(With one translator the translate queue piles up and the manager \
     waits;\n with nine it drains and the manager tile becomes the \
     bottleneck.)\n";
  Printf.printf "\nTile utilization over time, spec-1:\n%s"
    (Vat_trace.Report.utilization_table ~buckets:12 t1 ~total_cycles:r1.Vm.cycles);
  Printf.printf "\nTile utilization over time, spec-9:\n%s"
    (Vat_trace.Report.utilization_table ~buckets:12 t9 ~total_cycles:r9.Vm.cycles);
  Printf.printf "\nHot blocks, spec-9:\n%s"
    (Vat_trace.Report.hot_blocks ~top:8 t9)

let all_figures =
  [ ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("analysis", analysis);
    ("ablations", ablations);
    ("fabric", fabric);
    ("faults", faults);
    ("recovery", recovery);
    ("corruption", corruption);
    ("trace", trace_fig) ]

(* ------------------------------------------------------------------ *)
(* Experiment planning and the parallel runner                         *)
(* ------------------------------------------------------------------ *)

(* Every figure is a render function over a set of independent
   deterministic simulation cells. [cells_for] names each figure's cells;
   [run_all] fans the not-yet-cached ones out over a Pool, publishes the
   results into the caches (main domain only — workers share no mutable
   state beyond the mutex-guarded translation memos), and only then lets
   the figure print. Output is therefore byte-identical for any --jobs. *)

type cell =
  | C_run of {
      rkey : string;
      bench : Suite.benchmark;
      cfg : Config.t;
      cfaults : Fault.plan;
    }
  | C_piii of Suite.benchmark
  | C_fabric of { pair : string * string; pname : string }

let cell_id = function
  | C_run { rkey; bench; _ } -> bench.Suite.name ^ "/" ^ rkey
  | C_piii b -> "piii/" ^ b.Suite.name
  | C_fabric { pair; pname } -> "fabric/" ^ fabric_key pair pname

let cell_cached = function
  | C_run { rkey; bench; _ } -> Hashtbl.mem run_cache (bench.Suite.name, rkey)
  | C_piii b -> Hashtbl.mem piii_cache b.Suite.name
  | C_fabric { pair; pname } -> Hashtbl.mem fabric_cache (fabric_key pair pname)

let grid prefix configs =
  List.concat_map
    (fun b ->
      List.map
        (fun (k, cfg) ->
          C_run { rkey = prefix ^ k; bench = b; cfg; cfaults = Fault.empty })
        configs)
    benchmarks

let piii_cells bs = List.map (fun b -> C_piii b) bs

let cells_for = function
  | "fig4" -> grid "fig4-" fig4_configs @ piii_cells benchmarks
  | "fig5" -> grid "fig5-" fig5_configs @ piii_cells benchmarks
  | "fig6" | "fig7" -> grid "fig5-" fig5_configs
  | "fig8" ->
    grid "fig8-" [ ("off", { (morph_cfg ()) with optimize = false }) ]
    @ grid "fig8-" [ ("on", morph_cfg ()) ]
    @ piii_cells benchmarks
  | "fig9" -> grid "fig9-" fig9_configs @ piii_cells benchmarks
  | "fig10" -> grid "fig9-" fig9_configs
  | "analysis" ->
    grid "fig5-" [ ("spec-6", List.assoc "spec-6" fig5_configs) ]
    @ piii_cells benchmarks
  | "ablations" -> grid "abl-" ablation_configs @ piii_cells benchmarks
  | "fabric" ->
    List.concat_map
      (fun pair ->
        List.map (fun (pname, _) -> C_fabric { pair; pname }) fabric_policies)
      fabric_pairs
  | "faults" ->
    let cfg = Config.default in
    List.concat_map
      (fun b ->
        List.map
          (fun n ->
            C_run
              { rkey = Printf.sprintf "faults-%d" n;
                bench = b;
                cfg;
                cfaults = fault_plan cfg n })
          fault_counts)
      (fault_benchmarks ())
    @ piii_cells (fault_benchmarks ())
  | "corruption" ->
    let cfg = Config.default in
    List.concat_map
      (fun b ->
        List.map
          (fun n ->
            C_run
              { rkey = Printf.sprintf "corrupt-%d" n;
                bench = b;
                cfg;
                cfaults = corruption_plan cfg n })
          corruption_counts)
      (fault_benchmarks ())
    @ piii_cells (fault_benchmarks ())
  (* fig11 reuses whatever is cached; trace runs its two traced gcc
     simulations inline (a live recorder can't cross Pool domains);
     recovery runs inline too (its bare cells are allowed to die, which
     the shared cell runner treats as an error). *)
  | "fig11" | "trace" | "recovery" -> []
  | name -> invalid_arg ("Figures.cells_for: unknown figure " ^ name)

(* Build the worker task for a cell, on the main domain (memo handles are
   created here, pre-pool). The task runs on a worker and returns a
   publisher closure; publishers run back on the main domain, in
   submission order, and return the cell's simulated guest instructions
   (the BENCH.json throughput numerator). *)
let compute_cell cell : unit -> unit -> int =
  match cell with
  | C_run { rkey; bench; cfg; cfaults } ->
    let memo = memo_for bench in
    fun () ->
      let r = Vm.run ~fuel ~faults:cfaults ~memo cfg (Suite.load bench) in
      fun () ->
        check_outcome rkey bench r;
        Hashtbl.replace run_cache (bench.Suite.name, rkey) r;
        r.Vm.guest_insns
  | C_piii b ->
    fun () ->
      let r = Vat_refmodel.Piii.run (Suite.load b) in
      fun () ->
        (match r.outcome with
         | Vat_guest.Interp.Exited _ -> ()
         | _ -> failwith (b.Suite.name ^ ": reference run did not exit"));
        Hashtbl.replace piii_cache b.Suite.name r.cycles;
        r.instructions
  | C_fabric { pair; pname } ->
    fun () ->
      let na, nb = pair in
      let load n = Suite.load (Suite.find n) in
      let r =
        Fabric.run ~policy:(List.assoc pname fabric_policies) (load na, na)
          (load nb, nb)
      in
      fun () ->
        Hashtbl.replace fabric_cache (fabric_key pair pname) r;
        r.Fabric.a.guest_insns + r.Fabric.b.guest_insns

let dedup_cells cells =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let id = cell_id c in
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.add seen id ();
        true
      end)
    cells

type fig_timing = { fig : string; wall_ms : float; fig_guest_insns : int }

let write_json path ~jobs ~total_wall_s ~total_insns timings =
  let oc = open_out path in
  let insns_per_sec =
    if total_wall_s > 0. then float_of_int total_insns /. total_wall_s else 0.
  in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"vat-bench/1\",\n";
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc "  \"total_wall_ms\": %.1f,\n" (total_wall_s *. 1000.);
  Printf.fprintf oc "  \"total_guest_insns\": %d,\n" total_insns;
  Printf.fprintf oc "  \"guest_insns_per_sec\": %.0f,\n" insns_per_sec;
  Printf.fprintf oc "  \"figures\": [\n";
  List.iteri
    (fun i t ->
      Printf.fprintf oc
        "    { \"name\": %S, \"wall_ms\": %.1f, \"guest_insns\": %d }%s\n"
        t.fig t.wall_ms t.fig_guest_insns
        (if i = List.length timings - 1 then "" else ","))
    timings;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s (%.1fs wall, %d guest insns, %.0f guest-insns/s, %d jobs)\n"
    path total_wall_s total_insns insns_per_sec jobs

(* Run the selected figures: per figure, prefill its missing cells in
   parallel, then render. [json_file] records the perf trajectory. *)
let run_all ~jobs ~json_file wanted =
  let t0_all = Unix.gettimeofday () in
  let timings = ref [] in
  let total_insns = ref 0 in
  List.iter
    (fun (name, render) ->
      let t0 = Unix.gettimeofday () in
      let fresh =
        dedup_cells (List.filter (fun c -> not (cell_cached c)) (cells_for name))
      in
      let tasks = List.map compute_cell fresh in
      let publishers = Pool.run ~jobs tasks in
      let insns = List.fold_left (fun acc p -> acc + p ()) 0 publishers in
      inline_insns := 0;
      render ();
      let insns = insns + !inline_insns in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      total_insns := !total_insns + insns;
      timings := { fig = name; wall_ms; fig_guest_insns = insns } :: !timings)
    wanted;
  let total_wall_s = Unix.gettimeofday () -. t0_all in
  match json_file with
  | None -> ()
  | Some path ->
    write_json path ~jobs ~total_wall_s ~total_insns:!total_insns
      (List.rev !timings)
