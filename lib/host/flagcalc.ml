open Darco_guest

let compute (k : Code.flkind) ~a ~b ~c =
  let cf_in = c <> 0 in
  match k with
  | Fl_add -> Semantics.alu_flags Add ~cf_in:false a b
  | Fl_adc -> Semantics.alu_flags Adc ~cf_in a b
  | Fl_sub -> Semantics.alu_flags Sub ~cf_in:false a b
  | Fl_sbb -> Semantics.alu_flags Sbb ~cf_in a b
  | Fl_logic -> Semantics.alu_flags Or ~cf_in:false a 0
  | Fl_shl -> Semantics.shift_flags Shl a ~count:b ~flags:c
  | Fl_shr -> Semantics.shift_flags Shr a ~count:b ~flags:c
  | Fl_sar -> Semantics.shift_flags Sar a ~count:b ~flags:c
  | Fl_rol -> Semantics.shift_flags Rol a ~count:b ~flags:c
  | Fl_ror -> Semantics.shift_flags Ror a ~count:b ~flags:c
  | Fl_inc -> Semantics.keep_cf c (Semantics.add_flags a 1 0)
  | Fl_dec -> Semantics.keep_cf c (Semantics.sub_flags a 1 0)
  | Fl_neg -> Semantics.sub_flags 0 a 0
  | Fl_mulu ->
    let _, _, f = Semantics.mul_u a b in
    f
  | Fl_muls ->
    let _, _, f = Semantics.mul_s a b in
    f
