(* One benchmark run: set up a workload, measure it for a fixed time,
   check every output, and print one JSON result as the last line.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --ilp PATH

   --trace 0 reports the end-to-end metrics of untraced iterations;
   --trace 1 alternates untraced and traced iterations and reports the
   per-layer metrics.  --ilp is the `ilp` binary built from the same
   checkout.  perfbench/README.md defines every metric and records which
   layer metric should move which end-to-end metric. *)

open Ilp_core

type workload = {
  jobs : int;  (** sweep engine width; 0 is the serial engine *)
  checks : int;  (** configurations verified without execution, per iteration *)
  expected : string list;  (** files whose concatenation an iteration prints *)
  build : unit -> traced:bool -> unit -> unit -> string;
      (** build the inputs and return the iteration; an iteration
          returns the formatter of its output, run after the timing *)
  warm_up : (traced:bool -> unit -> unit -> string) -> string * string list;
      (** the warm-up iteration of the set-up: what it prints and the
          expected files that must match *)
  own : (unit -> string) option;
      (** the program's own entry point for an iteration's work, run
          once per run outside the timing, when the warm-up is not it *)
}

let nproc = Domain.recommended_domain_count ()

(* Relative to the root of the checkout, where the benchmark runs. *)
let expected_dir = "perfbench/expected"

(* The measured iteration is [Experiments.run_sweep] and the figure
   rendered from its cells; the warm-up is the library's own
   [Experiments.render_fig4_1], which does the same work. *)
let fig4_1 ~jobs =
  let build () =
    let requests = Sweeps.requests () in
    fun ~traced () ->
      let runs = Experiments.with_jobs jobs (fun () -> Sweeps.run ~traced requests) in
      let figure = Sweeps.render_fig4_1 runs in
      fun () -> Sweeps.cells requests runs ^ figure
  in
  { jobs;
    checks = 0;
    expected = [ "fig4_1_cells.txt"; "fig4_1.txt" ];
    build;
    warm_up =
      (fun _ -> (Experiments.with_jobs jobs Experiments.render_fig4_1, [ "fig4_1.txt" ]));
    own = None;
  }

(* Standard output of [prog args]; fails unless it exits with 0. *)
let command_output prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> failwith (String.concat " " (prog :: args) ^ " failed")

(* The measured iteration is the benchmark's own driver (Static_check),
   which can be traced; every run checks the `ilp` binary's output
   against the same expected files. *)
let static_check ~ilp =
  let expected = [ "lint.json"; "sanitize.txt" ] in
  let build () =
    let targets = Static_check.targets () in
    fun ~traced:_ () ->
      let out = Static_check.run targets in
      fun () -> out
  in
  { jobs = 0;
    checks = Static_check.checks_per_iteration;
    expected;
    build;
    warm_up = (fun iteration -> (iteration ~traced:false () (), expected));
    own =
      Some
        (fun () ->
          command_output ilp [ "lint"; "--all"; "--json" ]
          ^ command_output ilp [ "sanitize"; "--all" ]);
  }

let workload name ~ilp =
  match name with
  | "fig4_1_par" -> fig4_1 ~jobs:nproc
  | "static_check" -> static_check ~ilp
  | _ -> raise (Arg.Bad ("unknown workload " ^ name))

(* ---- measurement ---------------------------------------------------- *)

type sample = {
  wall : float;
  cpu : float;  (** user + system time of the whole process *)
  mwords : float;  (** words allocated by every domain, in millions *)
  ok : bool;
}

let cpu_time () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let allocated () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* Run one iteration between two readings of the clocks and the
   all-domain allocation counters; the pool, if any, is shut down inside
   the window.  The collection before it and the output check after it
   stay outside. *)
let measure ~verify iteration =
  Gc.full_major ();
  let c0 = cpu_time () in
  let w0 = allocated () in
  let t0 = Unix.gettimeofday () in
  let out =
    try Some (iteration ())
    with e ->
      prerr_endline ("iteration raised " ^ Printexc.to_string e);
      None
  in
  let t1 = Unix.gettimeofday () in
  let c1 = cpu_time () in
  (* the counters cover the minor heap only up to its last collection *)
  Gc.minor ();
  let w1 = allocated () in
  let ok = match out with Some o -> verify o | None -> false in
  { wall = t1 -. t0; cpu = c1 -. c0; mwords = (w1 -. w0) /. 1e6; ok }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* Renumber the names the library draws from process-wide counters --
   virtual registers [vN] and fresh labels [prefix_N] -- by first
   appearance.  Iterations start from different counter values, so two
   outputs are compared up to that renaming. *)
let canonical text =
  let b = Buffer.create (String.length text) in
  let regs = Hashtbl.create 256 and labels = Hashtbl.create 256 in
  let n = String.length text in
  let is_digit c = c >= '0' && c <= '9' in
  let is_ident c =
    is_digit c || c = '_' || c = '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  in
  let rec digits_end j = if j < n && is_digit text.[j] then digits_end (j + 1) else j in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    let j = digits_end (!i + 1) in
    let after_ident = !i > 0 && is_ident text.[!i - 1] in
    let tbl =
      if j = !i + 1 || (j < n && is_ident text.[j]) then None
      else if c = 'v' && not after_ident then Some regs
      else if c = '_' && after_ident then Some labels
      else None
    in
    match tbl with
    | None ->
        Buffer.add_char b c;
        incr i
    | Some tbl ->
        let num = String.sub text (!i + 1) (j - !i - 1) in
        let k =
          match Hashtbl.find_opt tbl num with
          | Some k -> k
          | None ->
              let k = Hashtbl.length tbl in
              Hashtbl.add tbl num k;
              k
        in
        Buffer.add_char b c;
        Buffer.add_string b (string_of_int k);
        i := j
  done;
  Buffer.contents b

(* ---- set-up --------------------------------------------------------- *)

type setup = {
  raw : float;  (** wall seconds on this host *)
  warm_ok : bool;  (** the warm-up's output matched *)
  refs : float list;  (** reference times taken around it *)
}

(* Build the inputs and run one warm-up iteration, so that lazy set-up
   is finished before timing.  Returns the iteration too. *)
let set_up w ~matches ~jobs =
  let before = Refspeed.samples ~jobs in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let iteration = w.build () in
  let out, files = w.warm_up iteration in
  let raw = Unix.gettimeofday () -. t0 in
  let after = Refspeed.samples ~jobs in
  ({ raw; warm_ok = matches files out; refs = before @ after }, iteration)

(* One more set-up in a fresh child process, so that it is as cold as
   the first.  Forked before any domain starts. *)
let forked_set_up w ~matches ~jobs =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let msg =
        match set_up w ~matches ~jobs with
        | s, _ ->
            String.concat " "
              (string_of_bool s.warm_ok :: List.map (Printf.sprintf "%.17g") (s.raw :: s.refs))
        | exception e ->
            prerr_endline ("set-up raised " ^ Printexc.to_string e);
            "false"
      in
      let oc = Unix.out_channel_of_descr wr in
      output_string oc msg;
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let msg = In_channel.input_all ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      (match String.split_on_char ' ' msg with
      | "true" :: raw :: refs ->
          { raw = float_of_string raw; warm_ok = true; refs = List.map float_of_string refs }
      | _ -> { raw = nan; warm_ok = false; refs = [] })

(* ---- per-layer metrics ---------------------------------------------- *)

let opt_passes =
  List.map
    (fun (p : Ilp.pass) -> p.pass_name)
    (Ilp.pipeline ~level:Ilp.O4 Ilp_machine.Presets.base)

(* Layers whose spans do not overlap: their self times, summed, are the
   part of an iteration the layers account for. *)
let self_time_layers =
  [ "lang.frontend"; "lang.absint"; "sched.schedule"; "sched.check";
    "sim.capture"; "sim.replay_ss"; "sim.replay_sp"; "analysis.memdep";
    "analysis.lint"; "analysis.validate"; "regalloc.verify" ]
  @ List.map (fun p -> "opt.pass." ^ p) opt_passes

(* The per-layer metrics of one traced iteration [s].  Its time is fully
   accounted for: summed layer self times + core.plan_s + par.idle_s =
   wall x jobs.  On the serial engine there is no idle time and the plan
   is everything outside the layers.  On the pool, the plan is the
   calling domain's time outside the pool phases, and idle is the rest
   of the participants' time outside the layers: waiting for work, for
   the other participant at a collection, or while the plan runs. *)
let layer_metrics ~jobs s =
  let time, count = Tracer.totals () in
  let capture_instrs = count "sim.capture_instrs" in
  let ss_instrs = count "sim.replay_ss_instrs"
  and sp_instrs = count "sim.replay_sp_instrs" in
  let dyn = ss_instrs +. sp_instrs in
  let passes = List.map (fun p -> (p, time ("opt.pass." ^ p))) opt_passes in
  let self = List.fold_left (fun acc l -> acc +. time l) 0. self_time_layers in
  let capacity = s.wall *. float_of_int jobs in
  let plan = if jobs > 1 then s.wall -. time "core.pool_phase" else s.wall -. self in
  let idle = capacity -. self -. plan in
  [ ("sim.replay_s", time "sim.replay_ss" +. time "sim.replay_sp", "s");
    ("sim.replay_ss_ns_per_instr", ratio (1e9 *. time "sim.replay_ss") ss_instrs, "ns/instr");
    ("sim.replay_sp_ns_per_instr", ratio (1e9 *. time "sim.replay_sp") sp_instrs, "ns/instr");
    ( "sim.replay_words_per_instr",
      ratio (count "sim.replay_ss_words" +. count "sim.replay_sp_words") dyn,
      "words/instr" );
    ("sim.capture_s", time "sim.capture", "s");
    ("sim.capture_ns_per_instr", ratio (1e9 *. time "sim.capture") capture_instrs, "ns/instr");
    ("sim.capture_words_per_instr", ratio (count "sim.capture_words") capture_instrs, "words/instr");
    ("sim.trace_mb", count "sim.trace_bytes" /. 1e6, "MB");
    ("sim.dyn_instrs", dyn, "count");
    ("sim.minor_cycles", count "sim.minor_cycles", "count");
    ("sim.stall_cycles", count "sim.stall_cycles", "count");
    ("sim.cycles_per_instr", ratio (count "sim.minor_cycles") dyn, "cycles/instr");
    ("lang.frontend_s", time "lang.frontend", "s");
    ("lang.absint_s", time "lang.absint", "s");
    ("opt.passes_s", List.fold_left (fun acc (_, t) -> acc +. t) 0. passes, "s") ]
  @ List.map (fun (p, t) -> ("opt.pass." ^ p ^ "_s", t, "s")) passes
  @ [ ("opt.ir_instrs", count "opt.ir_instrs", "count");
      ("sched.schedule_s", time "sched.schedule", "s");
      ("sched.check_s", time "sched.check", "s");
      ("analysis.memdep_s", time "analysis.memdep", "s");
      ("analysis.lint_s", time "analysis.lint", "s");
      ("analysis.validate_s", time "analysis.validate", "s");
      ("regalloc.verify_s", time "regalloc.verify", "s");
      ("analysis.memdep_pruned", count "analysis.memdep_pruned", "count");
      ( "analysis.sanitize_proved_ratio",
        ratio (count "analysis.sanitize_proved") (count "analysis.sanitize_sites"),
        "ratio" );
      ("par.busy_ratio", ratio s.cpu capacity, "ratio");
      ("par.idle_s", idle, "s");
      ("core.plan_s", plan, "s") ]

(* ---- the run -------------------------------------------------------- *)

(* Set-ups per run: the parent's own, plus forked ones. *)
let setups = 3

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
    (if Float.is_finite value then value else 0.)
    unit

(* Peak resident set of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l -> (
            try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)
            with Scanf.Scan_failure _ | End_of_file -> find ())
      in
      find ())

let () =
  let name = ref "" and seed = ref 0 and seconds = ref 0 and trace = ref 0
  and ilp = ref "" in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1 --ilp PATH" in
  Arg.parse
    [ ("--workload", Arg.Set_string name, "NAME static_check or fig4_1_par");
      ("--seed", Arg.Set_int seed, "N input seed (recorded; the inputs are fixed)");
      ("--seconds", Arg.Set_int seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--ilp", Arg.Set_string ilp, "PATH the ilp binary") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds <= 0 || !ilp = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let w = workload !name ~ilp:!ilp in
  let traced_run = !trace = 1 in
  (* [matches files text]: [text] is what [files] hold, up to the
     renaming done by [canonical] *)
  let matches files text =
    let read f = In_channel.with_open_bin (Filename.concat expected_dir f) In_channel.input_all in
    String.equal (canonical text) (canonical (String.concat "" (List.map read files)))
  in
  let verify format = matches w.expected (format ()) in
  let jobs = max 1 w.jobs in
  Printf.printf "# env: workload=%s seed=%d nproc=%d jobs=%d engine=%s ocaml=%s OCAMLRUNPARAM=%s\n%!"
    !name !seed nproc jobs
    (if w.jobs = 0 then "serial" else "pool")
    Sys.ocaml_version
    (Option.value ~default:"(unset)" (Sys.getenv_opt "OCAMLRUNPARAM"));
  (* set-up: forked ones first, while this process has started no domain *)
  let forked =
    if traced_run then [] else List.init (setups - 1) (fun _ -> forked_set_up w ~matches ~jobs)
  in
  let own_setup, iteration = set_up w ~matches ~jobs in
  let all_setups = forked @ [ own_setup ] in
  List.iter
    (fun s ->
      Printf.printf "# setup %.4f s, warm-up %s (reference %.4f s)\n%!" s.raw
        (if s.warm_ok then "ok" else "FAILED")
        (median s.refs))
    all_setups;
  let own_ok =
    match w.own with
    | None -> []
    | Some own ->
        let ok =
          try matches w.expected (own ())
          with e ->
            prerr_endline ("own entry point raised " ^ Printexc.to_string e);
            false
        in
        Printf.printf "# own entry point %s\n%!" (if ok then "ok" else "FAILED");
        [ ok ]
  in
  (* Reference times before the first iteration and after each one. *)
  let refs = ref (Refspeed.samples ~jobs) in
  let sample_after () =
    let r = Refspeed.samples ~jobs in
    refs := r @ !refs;
    median r
  in
  let untraced = ref [] and traced = ref [] in
  (* measure while the next round is expected to end inside the window *)
  let t_start = Unix.gettimeofday () and round = ref 0. in
  while
    !untraced = []
    || Unix.gettimeofday () -. t_start +. !round <= float_of_int !seconds
  do
    let t0 = Unix.gettimeofday () in
    let s = measure ~verify (iteration ~traced:false) in
    Printf.printf "# untraced %.4f s cpu %.4f s %.6f Mw %s (reference %.4f s)\n%!" s.wall
      s.cpu s.mwords
      (if s.ok then "ok" else "FAILED")
      (sample_after ());
    untraced := s :: !untraced;
    if traced_run then begin
      Tracer.reset ();
      Tracer.enabled := true;
      let t = measure ~verify (iteration ~traced:true) in
      Tracer.enabled := false;
      Printf.printf "# traced %.4f s %s (reference %.4f s)\n%!" t.wall
        (if t.ok then "ok" else "FAILED")
        (sample_after ());
      traced := (t, s, layer_metrics ~jobs t) :: !traced
    end;
    round := Unix.gettimeofday () -. t0
  done;
  let untraced = List.rev !untraced in
  let checked =
    own_ok
    @ List.map (fun s -> s.warm_ok) all_setups
    @ List.map (fun s -> s.ok) untraced
    @ List.map (fun (t, _, _) -> t.ok) !traced
  in
  let attempted = List.length checked in
  let failed = List.length (List.filter not checked) in
  (* the window's own reference times only: the host's speed during
     the set-ups, half a minute earlier, can differ *)
  let reference = median !refs in
  let normalised f = Refspeed.normalise ~reference (median (List.map f untraced)) in
  let wall = normalised (fun s -> s.wall) in
  let metrics =
    if not traced_run then
      [ ("wall_s", wall, "s");
        ("cpu_s", normalised (fun s -> s.cpu), "s");
        ( "setup_s",
          median
            (List.map
               (fun s -> Refspeed.normalise ~reference:(median s.refs) s.raw)
               all_setups),
          "s" );
        (* the first measured iteration: later ones drift by a few
           hundred words as the library's fresh-name counters grow *)
        ("alloc_mwords", (List.hd untraced).mwords, "Mw");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("pass_ratio", float_of_int (attempted - failed) /. float_of_int attempted, "ratio") ]
    else begin
      (* the per-layer numbers of the traced iteration with the least
         wall time *)
      let _, _, per_layer =
        List.fold_left
          (fun ((a, _, _) as x) ((b, _, _) as y) -> if b.wall < a.wall then y else x)
          (List.hd !traced) !traced
      in
      let get name =
        let _, v, _ = List.find (fun (n, _, _) -> n = name) per_layer in
        v
      in
      per_layer
      @ [ ("sim.minstr_per_s", ratio (get "sim.dyn_instrs" /. 1e6) wall, "Minstr/s");
          ("analysis.checks_per_s", ratio (float_of_int w.checks) wall, "1/s");
          (* each traced iteration against the untraced one just before it *)
          ( "trace.overhead_s",
            Refspeed.normalise ~reference
              (median (List.map (fun (t, u, _) -> t.wall -. u.wall) !traced)),
            "s" );
          ("host.reference_s", reference, "s");
          ("host.raw_wall_s", median (List.map (fun s -> s.wall) untraced), "s") ]
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map json_metric metrics))
