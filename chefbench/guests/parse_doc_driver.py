
def parse_doc(tail):
    doc = "{{DOC}}"
    k = 0
    while k < {{REPEAT}}:
        r = loads(doc)
        k = k + 1
    return loads(tail)
