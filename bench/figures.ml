(* Regenerates every table and figure of the paper's evaluation section
   (Wentzlaff & Agarwal, CGO 2006, Section 4). Each figure prints the same
   rows/series the paper reports; slowdown is always
   cycles(translator on the tiled host) / cycles(Pentium III model). *)

open Vat_desim
open Vat_core
open Vat_workloads
module Trace = Vat_trace.Trace

let fuel = 50_000_000

let benchmarks = Suite.all

(* The morphing pair used throughout (paper Section 4.4). *)
let morph_cfg ?(threshold = 15) () =
  { (Config.mem_heavy Config.default) with
    morph = Config.Morph { threshold; dwell = 25000 } }

(* Per-benchmark translation memos: every cell of a config sweep over one
   benchmark retranslates the same guest blocks, so cells share a keyed
   memo (see Translate.Memo — sound across configs and domains, and
   invisible in modelled timing). Created on the main domain; worker
   tasks capture their handle when their cell is built. *)
let memos =
  List.map (fun (b : Suite.benchmark) -> (b.name, Translate.Memo.create ()))
    benchmarks

(* Each workload assembled once per process, on the main domain while
   cells are built; a cell runs on a [Program.clone] of it, which copies
   page pointers only. Several workers may clone one pristine program at
   once. [Vm.run] clones the program it is given. *)
let programs : (string, Vat_guest.Program.t) Hashtbl.t = Hashtbl.create 16

let program (b : Suite.benchmark) =
  match Hashtbl.find_opt programs b.name with
  | Some p -> p
  | None ->
    let p = Suite.load b in
    Hashtbl.replace programs b.name p;
    p

(* ------------------------------------------------------------------ *)
(* Cells: every simulation a figure reads, run once, kept by key       *)
(* ------------------------------------------------------------------ *)

type result =
  | Vm_result of Vm.result * Trace.t
  | Piii_cycles of int
  | Fabric_result of Fabric.result

(* Everything a cell's result depends on, so figures that read the same
   run share one simulation (Figure 5's spec-6 is Figure 4's 128K-2bank
   bar and Figure 9's 4m6t). A fault plan enters by its events: its seed
   reaches only [Vm.fingerprint], which only snapshots carry, and no cell
   keeps one. *)
type key =
  | Vm_run of { bench : string; cfg : Config.t; events : Fault.event list;
                checkpoint_every : int option; traced : bool }
  | Piii_run of string
  | Fabric_run of (string * string) * string

(* A cell is one simulation a figure reads: its key in [results], and the
   task that computes it on a Pool worker, returning the result and the
   guest instructions it simulated (the BENCH.json throughput numerator).
   Cells are built on the main domain, so the memo handles their tasks
   capture exist before any pool launches. *)
type cell = { key : key; task : unit -> result * int }

(* A [traced] run records a trace, whose recorder lives inside the task. *)
let run ?(faults = Fault.empty) ?checkpoint_every ?(traced = false)
    (b : Suite.benchmark) cfg =
  let memo = List.assoc b.name memos and prog = program b in
  let task () =
    let trace = if traced then Trace.create () else Trace.disabled in
    let r = Vm.run ~fuel ~faults ~memo ~trace ?checkpoint_every cfg prog in
    (Vm_result (r, trace), r.guest_insns)
  in
  let events = Fault.events faults in
  { key = Vm_run { bench = b.name; cfg; events; checkpoint_every; traced };
    task }

let piii (b : Suite.benchmark) =
  let prog = program b in
  let task () =
    let r = Vat_refmodel.Piii.run (Vat_guest.Program.clone prog) in
    (match r.outcome with
     | Vat_guest.Interp.Exited _ -> ()
     | _ -> failwith (b.name ^ ": reference run did not exit"));
    (Piii_cycles r.cycles, r.instructions)
  in
  { key = Piii_run b.name; task }

let fabric_policies =
  [ ("static", Fabric.Static (3, 3)); ("shared", Fabric.Shared { dwell = 20000 }) ]

let fabric_cell (na, nb) policy =
  let pa = program (Suite.find na) and pb = program (Suite.find nb) in
  let task () =
    let clone = Vat_guest.Program.clone in
    let r =
      Fabric.run ~policy:(List.assoc policy fabric_policies) (clone pa, na)
        (clone pb, nb)
    in
    (Fabric_result r, r.a.guest_insns + r.b.guest_insns)
  in
  { key = Fabric_run ((na, nb), policy); task }

(* One table for every figure: [run_all] fills it, renders read it. *)
let results : (key, result) Hashtbl.t = Hashtbl.create 256

let result c =
  match Hashtbl.find_opt results c.key with
  | Some r -> r
  | None -> invalid_arg "Figures: undeclared cell"

(* A run as it ended, fault or not. Only recovery's columns read this. *)
let any_vm c =
  match result c with
  | Vm_result (r, _) -> r
  | Piii_cycles _ | Fabric_result _ -> assert false

(* Every other reader goes through [traced_vm] or [vm], which abort the
   bench unless the run exited. Whether a fault is allowed is the
   reader's call, not the run's: recovery's fault-free bare run is also
   the faults figure's 0-fault run, whichever figure ran it. *)
let traced_vm c =
  match (c.key, result c) with
  | Vm_run { bench; _ }, Vm_result (r, t) -> (
    match r.outcome with
    | Exec.Exited _ -> (t, r)
    | Exec.Fault m -> failwith (Printf.sprintf "%s faulted: %s" bench m)
    | Exec.Out_of_fuel -> failwith (bench ^ ": out of fuel"))
  | _ -> assert false

let vm c = snd (traced_vm c)

let slowdown b r =
  match result (piii b) with
  | Piii_cycles c -> Vm.slowdown r ~piii_cycles:c
  | Vm_result _ | Fabric_result _ -> assert false

(* A figure declares the cells its render reads; cells with equal keys
   are one run, whichever figures declare them. *)
type figure = { name : string; cells : cell list; render : unit -> unit }

(* ------------------------------------------------------------------ *)
(* Table helpers                                                       *)
(* ------------------------------------------------------------------ *)

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

(* A benchmark x configuration sweep: one cell per pair. *)
let sweep cfgs = List.concat_map (fun b -> List.map (run b) cfgs) benchmarks

(* A figure printing one value per sweep cell: a row per benchmark, a
   column per configuration. [reference] declares the reference runs that
   [slowdown] reads. *)
let sweep_figure ?(reference = true) name configs title text =
  { name;
    cells =
      (sweep (List.map snd configs)
       @ if reference then List.map piii benchmarks else []);
    render =
      (fun () ->
        header title (List.map fst configs);
        List.iter
          (fun b ->
            row b.Suite.name
              (List.map (fun (_, cfg) -> text b (vm (run b cfg))) configs))
          benchmarks) }

let slowdown_text fmt b r = Printf.sprintf fmt (slowdown b r)

(* ------------------------------------------------------------------ *)
(* Figure 4: L1.5 code-cache sizes                                     *)
(* ------------------------------------------------------------------ *)

let fig4 =
  sweep_figure "fig4"
    [ ("no-L1.5", { Config.default with n_l15_banks = 0 });
      ("64K-1bank", { Config.default with n_l15_banks = 1 });
      ("128K-2bank", { Config.default with n_l15_banks = 2 }) ]
    "Figure 4: slowdown vs L1.5 code cache size (no / 64K 1-bank / 128K 2-bank)"
    (slowdown_text "%.1f")

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

let fig5 =
  sweep_figure "fig5" fig5_configs
    "Figure 5: slowdown vs number of translation tiles (1 conservative; 1/2/4/6/9 speculative)"
    (slowdown_text "%.1f")

let fig6 =
  sweep_figure ~reference:false "fig6" fig5_configs
    "Figure 6: L2 code-cache accesses per cycle (same configurations)"
    (fun _ r -> Printf.sprintf "%.2e" (Metrics.l2_code_accesses_per_cycle r))

let fig7 =
  sweep_figure ~reference:false "fig7" fig5_configs
    "Figure 7: L2 code-cache misses per L2 access (same configurations)"
    (fun _ r -> Printf.sprintf "%.2e" (Metrics.l2_code_miss_rate r))

(* ------------------------------------------------------------------ *)
(* Figure 8: code optimization on/off                                  *)
(* ------------------------------------------------------------------ *)

(* The paper used the dynamically reconfiguring (6-9 translators)
   configuration for these runs. *)
let fig8 =
  sweep_figure "fig8"
    [ ("no-opt", { (morph_cfg ()) with optimize = false }); ("opt", morph_cfg ()) ]
    "Figure 8: slowdown without vs with code optimization (morphing config)"
    (slowdown_text "%.1f")

(* ------------------------------------------------------------------ *)
(* Figures 9/10: static vs dynamic reconfiguration                     *)
(* ------------------------------------------------------------------ *)

let fig9_configs =
  [ ("1m9t", Config.trans_heavy Config.default);
    ("4m6t", Config.mem_heavy Config.default);
    ("thr15", morph_cfg ~threshold:15 ());
    ("thr0", morph_cfg ~threshold:0 ());
    ("thr5", morph_cfg ~threshold:5 ()) ]

let fig9 =
  sweep_figure "fig9" fig9_configs
    "Figure 9: slowdown, static (1 mem/9 trans; 4 mem/6 trans) vs morphing (thresholds 15/0/5)"
    (slowdown_text "%.2f")

let fig10 =
  let cycles b (_, cfg) = (vm (run b cfg)).Vm.cycles in
  let render () =
    header
      "Figure 10: percent faster than the 1 mem/9 trans static configuration (higher is better)"
      (List.map (fun (c, _) -> c ^ "(%)") (List.tl fig9_configs));
    List.iter
      (fun b ->
        let base = cycles b (List.hd fig9_configs) in
        row b.Suite.name
          (List.map
             (fun c ->
               Printf.sprintf "%+.2f"
                 (100. *. float_of_int (base - cycles b c) /. float_of_int base))
             (List.tl fig9_configs)))
      benchmarks
  in
  { name = "fig10"; cells = sweep (List.map snd fig9_configs); render }

(* ------------------------------------------------------------------ *)
(* Figure 11 (table): architecture intrinsics                          *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  let emu = Analysis.emulator_intrinsics in
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

let analysis_config = List.assoc "spec-6" fig5_configs

let analysis () =
  let d = Analysis.paper_decomposition in
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
      let r = vm (run b analysis_config) in
      let dec =
        Analysis.decompose
          ~mem_access_rate:(min 0.6 (Metrics.mem_access_rate r))
          ~l1_miss_rate:(Metrics.l1d_miss_rate r)
          ~l2_miss_rate:
            (Stats.ratio r.Vm.stats "l2d.misses" "l2d.accesses")
      in
      let s = slowdown b r in
      row b.Suite.name
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

let ablations =
  sweep_figure "ablations"
    [ ("full", Config.default);
      ("no-chain", { Config.default with chaining = false });
      ("no-scoreboard", { Config.default with scoreboard = false });
      ("fifo-queues", { Config.default with priority_queues = false });
      ("no-retpred", { Config.default with return_predictor = false });
      ("superblocks", { Config.default with superblocks = true }) ]
    "Ablations: chaining, load scoreboarding, priority queues, return predictor (slowdowns)"
    (slowdown_text "%.1f")

(* ------------------------------------------------------------------ *)
(* Fabric sharing (Section 5 future work, implemented)                 *)
(* ------------------------------------------------------------------ *)

let fabric_pairs = [ ("gcc", "gzip"); ("vpr", "parser") ]

let fabric_run pair policy =
  match result (fabric_cell pair policy) with
  | Fabric_result r -> r
  | Vm_result _ | Piii_cycles _ -> assert false

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

let fabric_cells =
  List.concat_map
    (fun pair -> List.map (fun (policy, _) -> fabric_cell pair policy) fabric_policies)
    fabric_pairs

(* ------------------------------------------------------------------ *)
(* Fault tolerance: degradation under injected tile failures           *)
(* ------------------------------------------------------------------ *)

let fault_counts = [ 0; 1; 2; 4; 8 ]
let fault_seed = 2026
let fault_horizon = 400_000

(* The default machine under an [n]-fault plan. Plans are drawn from one
   seed with growing counts; the stream behind [Faultspec.plan] is
   prefix-stable, so each column adds faults to the previous one and the
   curve is a genuine cumulative-damage sweep. *)
let fault_cell ?recoverable_only ?classes ?checkpoint_every b n =
  let cfg = Config.default in
  let faults =
    Faultspec.plan ~horizon:fault_horizon ?recoverable_only ?classes cfg
      ~seed:fault_seed ~count:n
  in
  run ~faults ?checkpoint_every b cfg

let fault_benchmarks = List.map Suite.find [ "gzip"; "mcf"; "parser" ]

(* A fault sweep over [fault_benchmarks]: the slowdown under each plan
   size, then each [activity] counter under the largest plan. *)
let fault_figure name cell counts ~title ~column ~note ~activity_title
    activity =
  let at = List.hd (List.rev counts) in
  { name;
    cells =
      List.concat_map (fun b -> List.map (cell b) counts) fault_benchmarks
      @ List.map piii fault_benchmarks;
    render =
      (fun () ->
        header title (List.map column counts);
        List.iter
          (fun b ->
            row b.Suite.name
              (List.map
                 (fun n -> Printf.sprintf "%.2f" (slowdown b (vm (cell b n))))
                 counts))
          fault_benchmarks;
        print_string note;
        header activity_title (List.map fst activity);
        List.iter
          (fun b ->
            let r = vm (cell b at) in
            row b.Suite.name
              (List.map (fun (_, count) -> string_of_int (count r)) activity))
          fault_benchmarks) }

let faults =
  fault_figure "faults" (fun b n -> fault_cell b n) fault_counts
    ~title:
      (Printf.sprintf
         "Degradation: slowdown vs injected recoverable faults (seed %d, \
          cumulative plans)"
         fault_seed)
    ~column:(Printf.sprintf "%d-fault")
    ~note:
      "(Guest-visible results are identical in every cell; only timing moves.)\n"
    ~activity_title:"Recovery activity at the 8-fault point"
    [ ("tiles-lost", Metrics.failed_tiles);
      ("timeouts", Metrics.fault_timeouts);
      ("retries", Metrics.fault_retries);
      ("dropped", Metrics.dropped_requests);
      ("degraded", Metrics.degraded_events) ]

(* ------------------------------------------------------------------ *)
(* Checkpoint/rollback-recovery: previously-terminal faults survived   *)
(* ------------------------------------------------------------------ *)

let recovery_counts = [ 0; 2; 4; 8 ]
let recovery_every = 25_000

let recovery_benchmarks = List.map Suite.find [ "gzip"; "mcf" ]

(* Same seed and prefix-stability as the other fault sweeps, but the menu
   includes the previously-terminal sites: execution, manager and MMU
   fail-stops, and dirty-L2D storage loss. *)
let bare_cell b n = fault_cell ~recoverable_only:false b n

let ckpt_cell b n =
  fault_cell ~recoverable_only:false ~checkpoint_every:recovery_every b n

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
      row b.Suite.name
        (List.concat_map
           (fun n ->
             [ recovery_outcome_cell (any_vm (bare_cell b n));
               recovery_outcome_cell (any_vm (ckpt_cell b n)) ])
           recovery_counts))
    recovery_benchmarks;
  (* The rollback transparency claim, checked, not just printed: every
     checkpointed cell must finish with the fault-free run's guest state.
     The bare cells may die: that is the point of the bare column. *)
  List.iter
    (fun b ->
      let clean = vm (bare_cell b 0) in
      List.iter
        (fun n ->
          let ckpt = any_vm (ckpt_cell b n) in
          match ckpt.Vm.outcome with
          | Exec.Exited _ when ckpt.Vm.digest = clean.Vm.digest -> ()
          | _ ->
            failwith
              (Printf.sprintf "%s: checkpointed run diverged under %d faults"
                 b.Suite.name n))
        recovery_counts)
    recovery_benchmarks;
  Printf.printf
    "(Every checkpointed run survives and its guest digest matches the \
     fault-free run.)\n";
  header "Rollback activity at the 8-fault point (checkpointed)"
    [ "rollbacks"; "replayed"; "masked"; "quarantined"; "cycles"; "overhead" ];
  List.iter
    (fun b ->
      let r0 = vm (ckpt_cell b 0) in
      let r = vm (ckpt_cell b 8) in
      row b.Suite.name
        [ string_of_int (Metrics.recoveries r);
          string_of_int (Metrics.replayed_cycles r);
          string_of_int (Metrics.get r "recovery.masked_faults");
          string_of_int (Metrics.get r "recovery.quarantines");
          string_of_int r.Vm.cycles;
          Printf.sprintf "%+.1f%%"
            (100.
             *. (float_of_int r.Vm.cycles -. float_of_int r0.Vm.cycles)
             /. float_of_int r0.Vm.cycles) ])
    recovery_benchmarks

let recovery_cells =
  List.concat_map
    (fun b -> List.concat_map (fun n -> [ bare_cell b n; ckpt_cell b n ]) recovery_counts)
    recovery_benchmarks

(* ------------------------------------------------------------------ *)
(* End-to-end integrity: degradation under injected soft errors        *)
(* ------------------------------------------------------------------ *)

let corruption_counts = [ 0; 2; 4; 8; 16 ]

(* Same seed and prefix-stable stream as the fail-stop sweep, but drawn
   from the corruption classes only (payload flips, storage flips,
   duplicate deliveries). *)
let corruption_cell b n = fault_cell ~classes:Fault.corruption_classes b n

let corruption =
  fault_figure "corruption" corruption_cell corruption_counts
    ~title:
      (Printf.sprintf
         "Corruption: slowdown vs injected soft errors (seed %d, cumulative \
          plans, corruption classes only)"
         fault_seed)
    ~column:(Printf.sprintf "%d-error")
    ~note:
      "(Every error is detected and repaired: guest results are identical in \
       every cell and corrupt.silent is zero.)\n"
    ~activity_title:"Integrity activity at the 16-error point"
    [ ("injected", Metrics.corruptions_injected);
      ("detected", Metrics.corruptions_detected);
      ("corrected", Metrics.corruptions_corrected);
      ("quarantined", Metrics.quarantined_tiles);
      ("silent", Metrics.silent_corruptions) ]

(* ------------------------------------------------------------------ *)
(* Trace demo: Figure 5's gcc congestion story, time-resolved          *)
(* ------------------------------------------------------------------ *)

(* gcc is Figure 5's outlier: it keeps speeding up all the way to nine
   translation tiles while the other benchmarks flatten out early. The
   event trace shows the mechanism directly — with one translation tile
   the translate queue backs up and the fabric idles behind it; with nine
   the queue drains and the manager tile becomes the busy resource. *)

let trace_spec1 =
  run ~traced:true (Suite.find "gcc") { Config.default with n_translators = 1 }

let trace_spec9 =
  run ~traced:true (Suite.find "gcc") (Config.trans_heavy Config.default)

(* Peak value of a sampled gauge track (e.g. "translate-queue"). *)
let trace_peak_gauge t name =
  match Trace.find_track t name with
  | None -> 0
  | Some track ->
    let m = ref 0 in
    Trace.iter t (fun rec_ ->
        if rec_.Trace.track = track && rec_.Trace.kind = Trace.Queue_depth then
          m := max !m rec_.Trace.arg);
    !m

let trace_busy t (r : Vm.result) name =
  match Trace.find_track t name with
  | None -> 0.
  | Some track ->
    Vat_trace.Report.busy_fraction t ~track ~total_cycles:r.Vm.cycles

let trace_fig () =
  let t1, r1 = traced_vm trace_spec1 and t9, r9 = traced_vm trace_spec9 in
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
  [ fig4; fig5; fig6; fig7; fig8; fig9; fig10;
    { name = "fig11"; cells = []; render = fig11 };
    { name = "analysis";
      cells = sweep [ analysis_config ] @ List.map piii benchmarks;
      render = analysis };
    ablations;
    { name = "fabric"; cells = fabric_cells; render = fabric };
    faults;
    { name = "recovery"; cells = recovery_cells; render = recovery };
    corruption;
    { name = "trace"; cells = [ trace_spec1; trace_spec9 ]; render = trace_fig } ]

(* ------------------------------------------------------------------ *)
(* The parallel runner                                                 *)
(* ------------------------------------------------------------------ *)

type fig_timing = { fig : string; wall_ms : float; fig_guest_insns : int }

(* A figure's [guest_insns] and [wall_ms] cover only the simulations it
   ran: a run that several figures declare is charged to the first of them
   in run order, so the figures' counts sum to [total_guest_insns] and a
   figure whose runs all ran earlier (fig6, fig7) reports 0. *)
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

(* Run the selected figures: per figure, run the cells no earlier figure
   ran through the Pool, publish their results (main domain only —
   workers share no mutable state beyond the mutex-guarded translation
   memos), then render. Output is therefore byte-identical for any
   --jobs. [json_file] records the perf trajectory. *)
let run_all ~jobs ~json_file wanted =
  let t0_all = Unix.gettimeofday () in
  let timings = ref [] in
  let total_insns = ref 0 in
  List.iter
    (fun fig ->
      let t0 = Unix.gettimeofday () in
      let seen = Hashtbl.create 64 in
      let fresh =
        List.filter
          (fun c ->
            let run =
              not (Hashtbl.mem results c.key || Hashtbl.mem seen c.key)
            in
            Hashtbl.replace seen c.key ();
            run)
          fig.cells
      in
      let done_ = Pool.run ~jobs (List.map (fun c -> c.task) fresh) in
      let insns =
        List.fold_left2
          (fun acc c (r, n) ->
            Hashtbl.replace results c.key r;
            acc + n)
          0 fresh done_
      in
      fig.render ();
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      total_insns := !total_insns + insns;
      timings := { fig = fig.name; wall_ms; fig_guest_insns = insns } :: !timings)
    wanted;
  let total_wall_s = Unix.gettimeofday () -. t0_all in
  match json_file with
  | None -> ()
  | Some path ->
    write_json path ~jobs ~total_wall_s ~total_insns:!total_insns
      (List.rev !timings)
