Synch := [$f, Synch_Request, $r];
Apply := [$f, Apply_Snapshot, $r];
pattern := Synch -> Apply;
