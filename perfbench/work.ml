(* The three workloads: their cells, their set-up, and the timed passes
   over their cells. Every cell is a deterministic simulation whose
   modelled result is checked against the pinned table in Golden. *)

open Vat_desim
open Vat_guest
open Vat_core
open Vat_workloads
module Span = Vatbench_lib.Span
module Fp = Vatbench_lib.Fp

let fuel = 50_000_000
let checkpoint_every = 25_000
let fault_horizon = 400_000
let fault_count = 8
let default_fault_seed = 2026

let now = Unix.gettimeofday

(* "164.gzip" -> "gzip": the key used in cell ids and the pinned table. *)
let short (b : Suite.benchmark) =
  match String.index_opt b.name '.' with
  | Some i -> String.sub b.name (i + 1) (String.length b.name - i - 1)
  | None -> b.name

(* Figure 5's six translator configurations plus the threshold-15
   morphing configuration of Figures 8-10. *)
let sweep_configs =
  [ ("cons-1", { Config.default with speculation = false; n_translators = 1 });
    ("spec-1", { Config.default with n_translators = 1 });
    ("spec-2", { Config.default with n_translators = 2 });
    ("spec-4", { Config.default with n_translators = 4 });
    ("spec-6", { Config.default with n_translators = 6 });
    ("spec-9", Config.trans_heavy Config.default);
    ( "thr15",
      { (Config.mem_heavy Config.default) with
        morph = Config.Morph { threshold = 15; dwell = 25_000 } } ) ]

type kind =
  | Plain
  | Checkpointed of Fault.plan  (** every [checkpoint_every] cycles *)

type cell = {
  bench : Suite.benchmark;
  key : string;
  cfg : Config.t;
  kind : kind;
}

let cell_id c = short c.bench ^ "/" ^ c.key

let faulty c =
  match c.kind with Checkpointed p -> not (Fault.is_empty p) | Plain -> false

(* Reference kernels, see "Reference seconds" below. *)
type kernel = Alloc | Byte_hash

type workload = {
  name : string;
  benches : Suite.benchmark list;
  warm : bool;  (** translation memos primed during set-up *)
  fresh_heap : bool;
      (** each cell starts on a compacted heap, as a fresh [vat_run]
          process would; the warm sweep instead runs its cells back to
          back on one heap, as the figure harness does *)
  kernel : kernel;  (** times the cells in its reference seconds, see below *)
  cells : cell list;
}

let fault_plan ~fault_seed =
  Faultspec.plan ~horizon:fault_horizon ~recoverable_only:false Config.default
    ~seed:fault_seed ~count:fault_count

(* A benchmark checkpointed under [Config.default], once fault-free and
   once under the fault plan. *)
let checkpoint_cells ~fault_seed b =
  [ { bench = b; key = "ckpt"; cfg = Config.default; kind = Checkpointed Fault.empty };
    { bench = b; key = Printf.sprintf "ckpt-%df" fault_count; cfg = Config.default;
      kind = Checkpointed (fault_plan ~fault_seed) } ]

let workload ~fault_seed name =
  let plain key cfg b = { bench = b; key; cfg; kind = Plain } in
  match name with
  | "cold_suite" ->
    Some
      { name;
        benches = Suite.all;
        warm = false;
        fresh_heap = true;
        kernel = Alloc;
        cells = List.map (plain "default" Config.default) Suite.all }
  | "warm_sweep" ->
    Some
      { name;
        benches = Suite.all;
        warm = true;
        fresh_heap = false;
        kernel = Alloc;
        cells =
          List.concat_map
            (fun b -> List.map (fun (k, cfg) -> plain k cfg b) sweep_configs)
            Suite.all }
  | "checkpoint_recovery" ->
    let benches = List.map Suite.find [ "gzip"; "mcf" ] in
    Some
      { name;
        benches;
        warm = true;
        fresh_heap = true;
        kernel = Byte_hash;
        cells = List.concat_map (checkpoint_cells ~fault_seed) benches }
  | _ -> None

let workload_names = [ "cold_suite"; "warm_sweep"; "checkpoint_recovery" ]

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(* Every checked simulation counts as attempted; a mismatch against the
   pinned table (or a broken transparency property) counts as failed. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let tally () = { attempted = 0; failed = 0; problems = [] }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.problems < 20 then t.problems <- what :: t.problems
  end

let golden id =
  Option.map
    (fun (outcome, cycles, insns, digest) ->
      { Fp.outcome; cycles; insns; digest; stats = 0 })
    (List.assoc_opt id Golden.cells)

let check_pinned t id fp =
  match golden id with
  | None -> check t false (id ^ ": no pinned result")
  | Some g ->
    let d = Fp.diff ~stats:false g fp in
    check t (d = [])
      (Printf.sprintf "%s: %s differs (got %s; pinned %s)" id
         (String.concat "," d) (Fp.to_string fp) (Fp.to_string g))

let check_piii t name (r : Vat_refmodel.Piii.result) =
  let got = (r.cycles, r.instructions) in
  match List.assoc_opt name Golden.piii with
  | Some pinned ->
    check t
      ((match r.outcome with Interp.Exited _ -> true | _ -> false)
       && got = pinned)
      (Printf.sprintf "piii/%s: %d cycles, %d insns differ from the pinned table"
         name r.cycles r.instructions)
  | None -> check t false ("piii/" ^ name ^ ": no pinned result")

(* A checkpointed run under faults must end with the fault-free run's
   guest-visible state for any fault seed; its cycles are pinned only
   for the default seed. *)
let check_cell t ~fault_seed c fp =
  let id = cell_id c in
  if faulty c then begin
    let clean = golden (short c.bench ^ "/ckpt") in
    check t
      (match clean with
       | Some g -> fp.Fp.outcome = g.outcome && fp.digest = g.digest
                   && fp.insns = g.insns
       | None -> false)
      (Printf.sprintf "%s: guest state differs from the fault-free run (%s)"
         id (Fp.to_string fp));
    if fault_seed = default_fault_seed then check_pinned t id fp
  end
  else check_pinned t id fp

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type setup = {
  progs : (string * Program.t) list;
  memos : (string * Translate.Memo.t) list;
}

(* Load the guest programs, run the PIII reference models (on a clone:
   the reference interpreter runs the image in place), and for warm
   workloads prime one translation memo per benchmark with a cold run
   under the default configuration (every sweep configuration shares its
   translator knobs, so the sweep then misses nothing). *)
let setup ?(spans = Span.create ~enabled:false) t w =
  let progs =
    List.map
      (fun b ->
        let name = short b in
        (name, Span.with_ spans "suite.load" ~detail:name (fun () -> Suite.load b)))
      w.benches
  in
  List.iter
    (fun (name, prog) ->
      check_piii t name
        (Span.with_ spans "piii.run" ~detail:name (fun () ->
             Vat_refmodel.Piii.run (Program.clone prog))))
    progs;
  let memos =
    if not w.warm then []
    else
      List.map
        (fun (name, prog) ->
          let memo = Translate.Memo.create () in
          let r =
            Span.with_ spans "memo.prime" ~detail:name (fun () ->
                Vm.run ~fuel ~memo Config.default prog)
          in
          check_pinned t (name ^ "/default") (Fp.of_result r);
          (name, memo))
        progs
  in
  { progs; memos }

(* ------------------------------------------------------------------ *)
(* Running cells                                                       *)
(* ------------------------------------------------------------------ *)

type run = {
  fp : Fp.t;
  seconds : float;
  ref_seconds : float;  (** [seconds] in reference seconds, see below *)
  words : float;  (** minor-heap words allocated *)
}

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let seconds = now () -. t0 in
  (r, seconds, Gc.minor_words () -. w0)

(* Reference seconds. This host's speed swings by a quarter or more over
   tens of seconds as other tenants come and go, and a simulation slows
   down with it. So every timed cell sits between two runs of a fixed
   reference kernel (plain OCaml, no vat code) and is reported in
   reference seconds: its seconds times the kernel's nominal time over the
   mean of the two kernel times around it. Where the kernel takes its
   nominal time, reference seconds are wall seconds. Each workload uses
   the kernel that reacts to the swings as its cells do: hashing,
   allocation and sorting for translation and event simulation; a
   byte-hashing loop for checkpointed runs, whose time goes to
   Exec.capture's digest of the guest image. *)
let nominal = function Alloc -> 0.010 | Byte_hash -> 0.011

(* The size of a guest image: the byte-hash kernel streams through as much
   memory as one Mem.checksum does. *)
let hash_bytes = Bytes.init (4 lsl 20) (fun i -> Char.chr (i * 131 land 255))

let reference_log = ref []

let reference_seconds kernel =
  let t0 = now () in
  (match kernel with
   | Alloc ->
     let h = Hashtbl.create 1024 and l = ref [] in
     for i = 0 to 39_999 do
       let x = i * 7919 land 0xFFFFF in
       Hashtbl.replace h x i;
       if x land 3 = 0 then l := (x, Hashtbl.find_opt h (x lxor 1)) :: !l
     done;
     ignore (Sys.opaque_identity (List.sort compare !l, Hashtbl.length h))
   | Byte_hash ->
     (* The loop of Mem.checksum, written out here so that no vat change
        can move it. A Bytes.iter closure over the same bytes ran in two
        speeds, 11 and 15 ms, from one call to the next while the cells
        held steady, and spread the cells' reference seconds wider than
        their wall seconds. *)
     let h = ref 0xcbf29ce4 in
     for i = 0 to Bytes.length hash_bytes - 1 do
       h := ((!h lxor Char.code (Bytes.unsafe_get hash_bytes i)) * 0x100000001b3)
            land max_int
     done;
     ignore (Sys.opaque_identity !h));
  let s = now () -. t0 in
  reference_log := (kernel, s) :: !reference_log;
  s

let at_reference kernel ~before ~after seconds =
  seconds *. nominal kernel /. ((before +. after) /. 2.)

let run_cell ?trace setup c =
  let prog = List.assoc (short c.bench) setup.progs in
  let memo = List.assoc_opt (short c.bench) setup.memos in
  let result, seconds, words =
    timed (fun () ->
        match c.kind with
        | Plain -> Vm.run ~fuel ?memo ?trace c.cfg prog
        | Checkpointed faults ->
          Vm.run ~fuel ?memo ?trace ~faults ~checkpoint_every c.cfg prog)
  in
  { fp = Fp.of_result result; seconds; ref_seconds = seconds; words }

(* Fisher-Yates on a copy: each pass visits the cells in a seed-derived
   order, so the same seed replays the same sequence of inputs. *)
let permute rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let memo_counts setup =
  List.fold_left
    (fun (h, m) (_, memo) -> (h + Translate.Memo.hits memo, m + Translate.Memo.misses memo))
    (0, 0) setup.memos

(* One pass over the workload's cells in [rng]'s order, each result
   checked. Fresh-heap workloads compact the heap before each cell and
   after the last. With [reference], a run of the workload's kernel
   follows each compaction (or each cell), so two kernel runs bracket
   every cell. [trace_for] gives a cell its recorder and [traced] sees it
   after the run, so only one trace is alive at a time. Returns the runs
   in workload order. *)
let pass ?(spans = Span.create ~enabled:false) ?trace_for ?(traced = fun _ _ _ -> ())
    ?(reference = false) ~rng ~fault_seed t setup w =
  let settle () =
    if w.fresh_heap then Gc.compact ();
    if reference then reference_seconds w.kernel else 0.
  in
  let before = ref (settle ()) in
  let runs =
    List.map
      (fun c ->
        let trace = Option.map (fun f -> f c) trace_for in
        let r =
          Span.with_ spans "vm.run" ~detail:(cell_id c) (fun () ->
              run_cell ?trace setup c)
        in
        check_cell t ~fault_seed c r.fp;
        Option.iter (fun tr -> traced c r tr) trace;
        let after = settle () in
        let ref_seconds =
          if reference then at_reference w.kernel ~before:!before ~after r.seconds
          else r.seconds
        in
        before := after;
        (c, { r with ref_seconds }))
      (permute rng w.cells)
  in
  List.map (fun c -> (c, List.assq c runs)) w.cells

type measured = {
  passes : int;
  host_s : float;  (** sum over cells of the cell's median reference seconds *)
  raw_s : float;  (** the same sum of plain wall seconds *)
  pass_s : float list;  (** wall seconds of each pass, kernel runs included *)
  insns : int;  (** guest instructions retired in one pass *)
  cycles : int;  (** modelled cycles of one pass *)
  memo_misses : int;  (** translation-memo misses over all timed passes *)
  words : float;  (** median over passes of the minor words the cells allocate *)
}

(* Timed passes until [seconds] have elapsed, and at least three, so
   every cell's time is a median of three or more samples. *)
let measure ~seconds ~rng ~fault_seed t setup w =
  let samples = Hashtbl.create 97 in
  let sample c = Option.value (Hashtbl.find_opt samples (cell_id c)) ~default:[] in
  let pass_s = ref [] and words = ref [] and insns = ref 0 and cycles = ref 0 in
  let _, misses0 = memo_counts setup in
  let t0 = now () in
  while List.length !pass_s < 3 || now () -. t0 < seconds do
    let runs, s, _ =
      timed (fun () -> pass ~reference:true ~rng ~fault_seed t setup w)
    in
    pass_s := s :: !pass_s;
    words := List.fold_left (fun acc (_, (r : run)) -> acc +. r.words) 0. runs :: !words;
    insns := List.fold_left (fun acc (_, (r : run)) -> acc + r.fp.insns) 0 runs;
    cycles := List.fold_left (fun acc (_, (r : run)) -> acc + r.fp.cycles) 0 runs;
    List.iter
      (fun (c, (r : run)) ->
        Hashtbl.replace samples (cell_id c) ((r.ref_seconds, r.seconds) :: sample c))
      runs
  done;
  let sum f =
    List.fold_left
      (fun acc c -> acc +. Vatbench_lib.Stat.median (List.map f (sample c)))
      0. w.cells
  in
  { passes = List.length !pass_s;
    host_s = sum fst;
    raw_s = sum snd;
    pass_s = List.rev !pass_s;
    insns = !insns;
    cycles = !cycles;
    memo_misses = snd (memo_counts setup) - misses0;
    words = Vatbench_lib.Stat.median !words }
