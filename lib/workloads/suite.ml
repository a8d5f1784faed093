open Vat_guest

type benchmark = {
  name : string;
  description : string;
  program : unit -> Asm.item list;
}

let make name description program = { name; description; program }

let all =
  [ make Gzip.name Gzip.description Gzip.program;
    make Vpr.name Vpr.description Vpr.program;
    make Gcc_w.name Gcc_w.description Gcc_w.program;
    make Mcf.name Mcf.description Mcf.program;
    make Crafty.name Crafty.description Crafty.program;
    make Parser.name Parser.description Parser.program;
    make Perlbmk.name Perlbmk.description Perlbmk.program;
    make Gap.name Gap.description Gap.program;
    make Vortex.name Vortex.description Vortex.program;
    make Bzip2.name Bzip2.description Bzip2.program;
    make Twolf.name Twolf.description Twolf.program ]

let find key =
  let matches b =
    b.name = key
    ||
    match String.index_opt b.name '.' with
    | Some dot -> String.sub b.name (dot + 1) (String.length b.name - dot - 1) = key
    | None -> false
  in
  match List.find_opt matches all with
  | Some b -> b
  | None -> raise Not_found

let load b = Program.of_asm (b.program ())
