(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (CGO 2006, Section 4).

   Usage:
     dune exec bench/main.exe                  # every figure
     dune exec bench/main.exe -- --only fig5   # one figure
     dune exec bench/main.exe -- --list        # available figures
     dune exec bench/main.exe -- --jobs 4      # worker domains (default: cores)
     dune exec bench/main.exe -- --json F.json # machine-readable timings *)

let () =
  let only = ref [] in
  let list = ref false in
  let jobs = ref (Vat_desim.Pool.cpu_count ()) in
  let json = ref None in
  let args =
    [ ("--only", Arg.String (fun s -> only := s :: !only),
       "FIG run only this figure (repeatable): fig4..fig11, analysis");
      ("--jobs", Arg.Set_int jobs,
       "N simulation worker domains (default: CPU count; 1 = sequential)");
      ("--json", Arg.String (fun f -> json := Some f),
       "FILE write per-figure wall-clock and throughput as JSON");
      ("--list", Arg.Set list, " list available figures") ]
  in
  Arg.parse args
    (fun s -> raise (Arg.Bad ("unknown argument " ^ s)))
    "vat benchmark harness";
  if !list then begin
    List.iter (fun f -> print_endline f.Figures.name) Figures.all_figures;
    exit 0
  end;
  let wanted =
    match !only with
    | [] -> Figures.all_figures
    | names ->
      List.filter (fun f -> List.mem f.Figures.name names) Figures.all_figures
  in
  print_endline
    "vat: Constructing Virtual Architectures on a Tiled Processor (CGO 2006) - \
     experiment reproduction";
  print_endline
    "slowdown = cycles(parallel DBT on tiled host) / cycles(Pentium III model)";
  Figures.run_all ~jobs:!jobs ~json_file:!json wanted
