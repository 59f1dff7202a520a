Snapshot := [$l, Take_Snapshot, $r];
Forward  := [$l, Forward_Snapshot, $r];
pattern := Snapshot -> Forward;
