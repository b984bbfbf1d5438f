class ShinyTree:
    pass
