module bigtiny

go 1.23
