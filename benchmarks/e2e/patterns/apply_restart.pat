Apply   := [$f, Apply_Snapshot, $r];
Restart := [$f, Restart, ''];
pattern := Apply -> Restart;
