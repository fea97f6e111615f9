(* The Figure 4-1 sweep: 8 workloads x 16 configurations (superscalar
   and superpipelined, degrees 1-8).

   Untraced, an iteration is [Experiments.run_sweep] over the figure's
   requests -- the work [Experiments.render_fig4_1] does -- followed by
   the figure rendered from the cells.  Traced, it drives the same
   requests through the same two-phase plan as [run_sweep] -- one
   capture per register-split group, then one segment chain per
   request, on the same engine -- with a span around each public
   call. *)

open Ilp_core
module Registry = Ilp_workloads.Registry
module Metrics = Ilp_sim.Metrics
module Trace_buffer = Ilp_sim.Trace_buffer
module Pool = Ilp_par.Pool

(* The cells of the figure, in the order [Experiments.fig4_1] issues
   them: workload-major, superscalar degrees then superpipelined. *)
let requests () =
  let configs =
    Array.of_list
      (List.map Ilp_machine.Presets.superscalar Experiments.degrees
      @ List.map Ilp_machine.Presets.superpipelined Experiments.degrees)
  in
  let nc = Array.length configs in
  let workloads = Array.of_list Registry.all in
  Array.init
    (Array.length workloads * nc)
    (fun k -> Experiments.request workloads.(k / nc) configs.(k mod nc))

let opt_layer = function
  | "codegen" -> "lang.frontend"
  | pass -> "opt.pass." ^ pass

(* Phase 1 of the plan for one capture group. *)
let capture (r : Experiments.request) =
  let mark = Tracer.pass_clock opt_layer in
  let pre =
    Ilp.compile_unscheduled ?unroll:r.rq_unroll ~level:r.rq_level
      ~on_pass:(fun name _ _ -> mark name)
      r.rq_config r.rq_source
  in
  Tracer.count "opt.ir_instrs" (float_of_int (Ilp_ir.Program.instr_count pre));
  let trace = Tracer.span_words "sim.capture" (fun () -> Trace_buffer.capture pre) in
  Tracer.count "sim.capture_instrs" (float_of_int (Trace_buffer.dyn_instrs trace));
  (pre, trace)

(* Replay time is split by machine family: superpipelined (pipe degree
   above 1) against the rest. *)
let replay_layer (c : Ilp_machine.Config.t) =
  if c.pipe_degree > 1 then "sim.replay_sp" else "sim.replay_ss"

let finish layer = function
  | `More sg -> Pool.More (layer, sg)
  | `Done (run : Metrics.run) ->
      Tracer.count (layer ^ "_instrs") (float_of_int run.dyn_instrs);
      Tracer.count "sim.minor_cycles" (float_of_int run.minor_cycles);
      Tracer.count "sim.stall_cycles" (float_of_int run.stall_cycles);
      Pool.Done run

(* [Experiments.run_sweep] with a span around every call into a layer. *)
let traced_sweep (requests : Experiments.request array) =
  let group_of_key = Hashtbl.create 16 in
  let representatives = ref [] in
  Array.iter
    (fun r ->
      let key = Experiments.capture_key r in
      if not (Hashtbl.mem group_of_key key) then begin
        Hashtbl.add group_of_key key (Hashtbl.length group_of_key);
        representatives := r :: !representatives
      end)
    requests;
  let captures =
    Tracer.span "core.pool_phase" (fun () ->
        Experiments.par_map capture (Array.of_list (List.rev !representatives)))
  in
  Tracer.count "sim.trace_bytes"
    (float_of_int
       (Array.fold_left (fun acc (_, t) -> acc + Trace_buffer.byte_size t) 0 captures));
  Tracer.span "core.pool_phase" @@ fun () ->
  Experiments.par_map_chunked
    ~start:(fun (r : Experiments.request) ->
      let pre, trace =
        captures.(Hashtbl.find group_of_key (Experiments.capture_key r))
      in
      let binary =
        Tracer.span "sched.schedule" (fun () ->
            Ilp.schedule ~memdep:r.rq_memdep ~level:r.rq_level r.rq_config pre)
      in
      let layer = replay_layer r.rq_config in
      finish layer
        (Tracer.span_words layer (fun () ->
             Metrics.replay_segmented_start r.rq_config trace binary)))
    ~step:(fun (layer, sg) ->
      finish layer
        (Tracer.span_words layer (fun () -> Metrics.replay_segmented_step sg)))
    requests

(* The figure rendered from the cells, exactly as
   [Experiments.render_fig4_1] lays it out. *)
let render_fig4_1 (runs : Metrics.run array) =
  let degrees = Experiments.degrees in
  let nd = List.length degrees in
  let nc = 2 * nd in
  let nw = List.length Registry.all in
  let mean ic =
    Metrics.harmonic_mean
      (List.init nw (fun iw -> runs.((iw * nc) + ic).Metrics.speedup))
  in
  let rows =
    List.mapi
      (fun k d ->
        { Experiments.degree = d; superscalar = mean k; superpipelined = mean (nd + k) })
      degrees
  in
  let chart =
    Report.line_chart ~x_label:"degree" ~y_label:"speedup (harmonic mean)"
      [ { Report.label = 'S';
          points =
            List.map
              (fun (r : Experiments.fig4_1) ->
                (float_of_int r.degree, r.superscalar))
              rows
        };
        { Report.label = 'P';
          points =
            List.map
              (fun (r : Experiments.fig4_1) ->
                (float_of_int r.degree, r.superpipelined))
              rows
        } ]
  in
  let body =
    Report.table
      ~header:[ "degree"; "superscalar"; "superpipelined" ]
      (List.map
         (fun (r : Experiments.fig4_1) ->
           [ string_of_int r.degree;
             Printf.sprintf "%.3f" r.superscalar;
             Printf.sprintf "%.3f" r.superpipelined ])
         rows)
  in
  Report.section
    "Figure 4-1: supersymmetry (S = superscalar, P = superpipelined)"
    (body ^ "\n\n" ^ chart)

(* One line per cell with its exact counts and checksum, compared with
   perfbench/expected/fig4_1_cells.txt. *)
let cells (requests : Experiments.request array) (runs : Metrics.run array) =
  let b = Buffer.create 8192 in
  Array.iteri
    (fun k (r : Experiments.request) ->
      let run = runs.(k) in
      Printf.bprintf b "%-10s %-18s dyn %9d minor %9d stall %9d sink %s\n"
        r.rq_workload.Ilp_workloads.Workload.name run.machine run.dyn_instrs run.minor_cycles
        run.stall_cycles
        (Ilp_sim.Value.to_string run.sink))
    requests;
  Buffer.contents b

let run ~traced requests =
  if traced then traced_sweep requests else Experiments.run_sweep requests
