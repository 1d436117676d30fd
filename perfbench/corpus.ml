(* The kernel corpus the [translate] and [validate] workloads share:
   every distinct OpenCL kernel source the suite's OpenCL apps build
   (captured by running each app once against [Suite.Capture]'s
   recording API) and every CUDA program expected to translate. *)

type source = {
  s_label : string;
  s_dialect : [ `Opencl | `Cuda ];
  s_text : string;
  s_uses_subdevices : bool;  (* OpenCL: the owning app blocks translation *)
  s_tex1d_texels : int option;  (* CUDA: runtime 1D-texture size hint *)
}

let load () : source list =
  let seen = Hashtbl.create 64 in
  let ocl =
    List.concat_map
      (fun (a : Bridge.Framework.ocl_app) ->
         List.filter_map
           (fun src ->
              if Hashtbl.mem seen src then None
              else begin
                Hashtbl.replace seen src ();
                Some
                  { s_label = a.oa_name ^ "#" ^ string_of_int (Hashtbl.length seen);
                    s_dialect = `Opencl;
                    s_text = src;
                    s_uses_subdevices = a.oa_uses_subdevices;
                    s_tex1d_texels = None }
              end)
           (Suite.Capture.kernel_sources a))
      Suite.Registry.all_opencl
  in
  let cuda =
    List.filter_map
      (fun (c : Suite.Registry.cuda_app) ->
         if c.cu_expect_translatable then
           Some
             { s_label = c.cu_name;
               s_dialect = `Cuda;
               s_text = c.cu_src;
               s_uses_subdevices = false;
               s_tex1d_texels = c.cu_tex1d_texels }
         else None)
      Suite.Registry.all_cuda
  in
  ocl @ cuda
