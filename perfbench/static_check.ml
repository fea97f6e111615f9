(* The static-checking workload: the verdict sweep of `ilp lint --all
   --json` followed by `ilp sanitize --all`, driven through the
   libraries' public functions.  Nothing is executed.  The rendering
   follows the CLI byte for byte, and every run checks this driver's
   output against the `ilp` binary's (see bench.ml). *)

open Ilp_core
module D = Ilp_analysis.Diagnostics
module A = Ilp_lang.Absint
module Unroll = Ilp_lang.Unroll
module W = Ilp_workloads.Workload
module Registry = Ilp_workloads.Registry

(* The machine `ilp lint` defaults to. *)
let machine = Ilp_machine.Presets.base

(* Unroll specs swept per level: (factor, peel). *)
let unroll_specs = [ (1, false); (2, false); (4, false); (4, true) ]

let corpus_size = 10

(* The alias-heavy corpus `lint --all` generates at its pinned seeds. *)
let corpus () =
  List.init corpus_size (fun k ->
      let st = Random.State.make [| 0x1197; 0xa11a; k |] in
      ( Printf.sprintf "alias-%02d" k,
        Ilp_lang.Gen_prog.render (Ilp_lang.Gen_prog.generate ~mode:`Alias_heavy st) ))

(* Programs linted: the paper's eight, then the generated corpus. *)
let targets () =
  List.map (fun (w : W.t) -> (w.name, w.source)) Registry.all @ corpus ()

(* `sanitize --all` tallies each benchmark rolled and at its shipped
   unroll factor. *)
let sanitize_specs (w : W.t) =
  None :: (if w.default_unroll > 1 then [ Some w.default_unroll ] else [])

(* Configurations one iteration verifies: one lint per (program, level,
   unroll spec) plus one sanitize tally per `sanitize --all` line. *)
let checks_per_iteration =
  ((List.length Registry.all + corpus_size)
  * List.length Ilp.all_levels * List.length unroll_specs)
  + List.fold_left
      (fun acc w -> acc + List.length (sanitize_specs w))
      0
      (Registry.all @ Registry.extras)

let unroll_spec factor peel =
  if factor <= 1 then None
  else Some { Ilp.mode = Unroll.Naive; factor; bounds = peel }

let unroll_stats_for unroll source =
  match unroll with
  | None -> Unroll.no_stats
  | Some { Ilp.mode; factor; bounds } ->
      Tracer.span "lang.frontend" (fun () ->
          snd (Unroll.program_stats ~bounds mode factor (Ilp.frontend source)))

(* ---- lint ---------------------------------------------------------- *)

let opt_layer = function
  | "codegen" -> "lang.frontend"
  | "list_sched" -> "sched.schedule"
  | pass -> "opt.pass." ^ pass

(* The CLI's lint of one configuration: snapshots after codegen and every
   pass, each validated; regalloc verified at its seams; the schedule
   checked; memdep statistics per function; the full lint on the last
   pre-allocation snapshot. *)
let lint_compile ?unroll ~level config source =
  let snapshots = ref [] in
  let snapshot mark name stage p =
    mark name;
    snapshots := (name, stage, p) :: !snapshots
  in
  let unsched =
    Ilp.compile_unscheduled ?unroll
      ~on_pass:(snapshot (Tracer.pass_clock opt_layer))
      ~level config source
  in
  Tracer.count "opt.ir_instrs" (float_of_int (Ilp_ir.Program.instr_count unsched));
  ignore
    (Ilp.schedule
       ~on_pass:(snapshot (Tracer.pass_clock opt_layer))
       ~level config unsched);
  let snapshots = List.rev !snapshots in
  let max_reg = Ilp_regalloc.Regfile.file_size config in
  let last_virtual =
    List.fold_left
      (fun acc (name, stage, p) -> if stage = `Virtual then Some (name, p) else acc)
      None snapshots
  in
  let diags = ref [] in
  let add pass ds = diags := !diags @ List.map (fun d -> (pass, d)) ds in
  let rec walk prev = function
    | [] -> ()
    | (name, stage, p) :: rest ->
        add name
          (List.map
             (fun (i : Ilp_ir.Validate.issue) ->
               D.make D.Error ~check:"validate" ~func:i.where i.what)
             (Tracer.span "analysis.validate" (fun () ->
                  Ilp_ir.Validate.check ~stage ~max_reg p)));
        if stage = `Virtual then
          add name
            (Tracer.span "analysis.lint" (fun () ->
                 Ilp_analysis.Lint.errors_only p));
        (match (name, prev) with
        | "global_alloc", Some before ->
            add name
              (Tracer.span "regalloc.verify" (fun () ->
                   Ilp_regalloc.Regalloc_verify.check_global_alloc config
                     ~before ~after:p))
        | "temp_alloc", Some before ->
            add name
              (Tracer.span "regalloc.verify" (fun () ->
                   Ilp_regalloc.Regalloc_verify.check_temp_alloc_program
                     config ~before ~after:p))
        | "list_sched", Some before ->
            (try
               Tracer.span "sched.check" (fun () ->
                   Ilp_sched.Check_sched.check_program config ~original:before
                     ~scheduled:p)
             with Ilp_sched.Check_sched.Illegal msg ->
               add name [ D.make D.Error ~check:"sched" ~func:"program" msg ]);
            List.iter
              (fun (f : Ilp_ir.Func.t) ->
                let s =
                  Tracer.span "analysis.memdep" (fun () ->
                      let md = Ilp_analysis.Memdep.analyze f in
                      Ilp_analysis.Memdep.func_stats md f)
                in
                Tracer.count "analysis.memdep_pruned" (float_of_int s.pruned);
                add name
                  [ D.make D.Info ~check:"memdep" ~func:f.name
                      (Printf.sprintf
                         "%d ordered memory pair(s): %d proven no-alias, %d \
                          must-alias, %d edge(s) pruned beyond the region \
                          analysis"
                         s.pairs s.no_alias s.must_alias s.pruned) ])
              before.functions
        | _ -> ());
        walk (Some p) rest
  in
  walk None snapshots;
  (match last_virtual with
  | Some (name, p) ->
      add name
        (List.filter
           (fun d -> not (D.is_error d))
           (Tracer.span "analysis.lint" (fun () -> Ilp_analysis.Lint.check p)))
  | None -> ());
  !diags

(* Collapse findings identical up to their location into one entry with
   a copy count, in first-appearance order. *)
let dedup_diags (diags : (string * D.t) list) : (string * D.t * int) list =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (pass, (d : D.t)) ->
      let key = (pass, d.severity, d.check, d.func, d.message) in
      match Hashtbl.find_opt tbl key with
      | Some r -> incr r
      | None ->
          let r = ref 1 in
          Hashtbl.add tbl key r;
          order := (pass, d, r) :: !order)
    diags;
  List.rev_map (fun (pass, d, r) -> (pass, d, !r)) !order

(* ---- sanitize ------------------------------------------------------ *)

let sanitize_analysis ?unroll source =
  let tast = Tracer.span "lang.frontend" (fun () -> Ilp.frontend source) in
  let tast =
    match unroll with
    | Some { Ilp.mode; factor; bounds } ->
        Tracer.span "lang.frontend" (fun () -> Unroll.program ~bounds mode factor tast)
    | None -> tast
  in
  Tracer.span "lang.absint" (fun () -> A.analyze tast)

(* One diagnostic per non-safe (function, array, direction, verdict)
   group, as the CLI reports them. *)
let sanitize_diags (t : A.t) : (string * D.t * int) list =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (s : A.site) ->
      match s.s_verdict with
      | A.Proved_safe -> ()
      | v -> (
          let key = (s.s_func, s.s_array, s.s_write, v) in
          match Hashtbl.find_opt tbl key with
          | Some r ->
              let range, n = !r in
              r := (Ilp_analysis.Range.V.join range s.s_range, n + 1)
          | None ->
              let r = ref (s.s_range, 1) in
              Hashtbl.add tbl key r;
              order := (s, r) :: !order))
    t.sites;
  List.rev_map
    (fun ((s : A.site), r) ->
      let range, copies = !r in
      ( "sanitize",
        D.make
          (match s.s_verdict with A.Proved_oob -> D.Error | _ -> D.Warning)
          ~check:"sanitize" ~func:s.s_func ~instr:s.s_path
          (Printf.sprintf "%s %s[%s] vs extent %d: %s"
             (if s.s_write then "store to" else "load from")
             s.s_array
             (Ilp_analysis.Range.V.to_string range)
             s.s_extent (A.verdict_name s.s_verdict)),
        copies ))
    !order

let sanitize_report ?unroll source =
  let t = sanitize_analysis ?unroll source in
  let ((safe, oob, unknown) as counts) = A.counts t in
  Tracer.count "analysis.sanitize_proved" (float_of_int (safe + oob));
  Tracer.count "analysis.sanitize_sites" (float_of_int (safe + oob + unknown));
  (counts, sanitize_diags t)

(* ---- rendering, as `lint --json` (schema version 3) ----------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let lint_json results =
  let b = Buffer.create (1 lsl 20) in
  let errors = ref 0 and warnings = ref 0 and infos = ref 0 in
  let severity_name = function
    | D.Error -> "error"
    | D.Warning -> "warning"
    | D.Info -> "info"
  in
  let opt_string = function
    | None -> "null"
    | Some s -> Printf.sprintf "\"%s\"" (json_escape s)
  in
  let unroll_stats_json (st : Unroll.stats) =
    Printf.sprintf
      "{ \"rolled\": %d, \"peeled\": %d, \"full\": %d, \"skipped\": { %s } }"
      st.rolled st.peeled st.full
      (String.concat ", "
         (List.map
            (fun r ->
              Printf.sprintf "\"%s\": %d" (Unroll.skip_reason_name r)
                (Unroll.skip_count st r))
            Unroll.all_skip_reasons))
  in
  Buffer.add_string b "{\n  \"version\": 3,\n  \"results\": [";
  List.iteri
    (fun i (bench, level, factor, peel, stats, (safe, oob, unknown), diags) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"bench\": \"%s\", \"machine\": \"%s\", \"level\": \
            \"O%d\", \"unroll\": %d, \"careful\": false, \"peel\": %b,\n\
           \      \"unroll_stats\": %s,\n\
           \      \"sanitize\": { \"safe\": %d, \"oob\": %d, \"unknown\": \
            %d },\n\
           \      \"diagnostics\": ["
           (json_escape bench) (json_escape machine.name) (Ilp.level_rank level)
           factor peel (unroll_stats_json stats) safe oob unknown);
      List.iteri
        (fun j (pass, (d : D.t), copies) ->
          (match d.severity with
          | D.Error -> incr errors
          | D.Warning -> incr warnings
          | D.Info -> incr infos);
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "\n        { \"pass\": \"%s\", \"severity\": \"%s\", \
                \"check\": \"%s\", \"func\": \"%s\", \"block\": %s, \
                \"instr\": %s, \"copies\": %d, \"message\": \"%s\" }"
               (json_escape pass) (severity_name d.severity)
               (json_escape d.check) (json_escape d.func)
               (opt_string d.block) (opt_string d.instr) copies
               (json_escape d.message)))
        diags;
      Buffer.add_string b (if diags = [] then "] }" else "\n      ] }"))
    results;
  Buffer.add_string b
    (Printf.sprintf
       "\n  ],\n\
       \  \"summary\": { \"errors\": %d, \"warnings\": %d, \"infos\": %d }\n\
        }\n"
       !errors !warnings !infos);
  Buffer.contents b

(* ---- one iteration -------------------------------------------------- *)

(* `lint --all`: every target at every level and unroll spec, at the
   default severity threshold (warning), one sanitize per (factor, peel)
   shared across levels. *)
let lint_all targets =
  let results = ref [] in
  List.iter
    (fun (bname, source) ->
      let memo = Hashtbl.create 4 in
      let sanitize_for unroll key =
        match Hashtbl.find_opt memo key with
        | Some r -> r
        | None ->
            let r = sanitize_report ?unroll source in
            Hashtbl.add memo key r;
            r
      in
      List.iter
        (fun level ->
          List.iter
            (fun (factor, peel) ->
              let unroll = unroll_spec factor peel in
              let scounts, sdiags = sanitize_for unroll (factor, peel) in
              let diags =
                dedup_diags (lint_compile ?unroll ~level machine source) @ sdiags
              in
              let shown =
                List.filter (fun (_, (d : D.t), _) -> d.severity <> D.Info) diags
              in
              results :=
                ( bname, level, factor, peel, unroll_stats_for unroll source,
                  scounts, shown )
                :: !results)
            unroll_specs)
        Ilp.all_levels)
    targets;
  lint_json (List.rev !results)

(* `sanitize --all`: every benchmark, rolled and at its shipped factor. *)
let sanitize_all () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun factor ->
          let unroll = Option.bind factor (fun f -> unroll_spec f false) in
          let (safe, o, unknown), _ = sanitize_report ?unroll w.source in
          let name =
            match factor with
            | None -> w.name
            | Some f -> Printf.sprintf "%s x%d" w.name f
          in
          Printf.bprintf b
            "sanitize %-10s %3d subscript(s): %3d safe, %d oob, %3d unknown%s\n"
            name (safe + o + unknown) safe o unknown
            (if o > 0 then "  <-- PROVED OUT OF BOUNDS" else ""))
        (sanitize_specs w))
    (Registry.all @ Registry.extras);
  Buffer.contents b

(* One iteration: what `ilp lint --all --json` and then `ilp sanitize
   --all` print. *)
let run targets =
  let lint = lint_all targets in
  lint ^ sanitize_all ()
